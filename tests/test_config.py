import pytest

from pim.config import ConfigError, DEFAULTS, load_config, merged, parse_value


def test_parse_value_typing():
    assert parse_value("3") == 3 and isinstance(parse_value("3"), int)
    assert parse_value("3.5") == 3.5 and isinstance(parse_value("3.5"), float)
    assert parse_value("1e-8") == 1e-8
    assert parse_value("true") == "true"  # no key is boolean
    assert parse_value("cubic") == "cubic"
    assert parse_value("  -12 ") == -12


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "solver.tol = 1e-8   # inline comment\n"
        "kernel.profile = truncated_gaussian\n"
        "assembly.dense_cutoff = 64\n"
    )
    cfg = load_config(path)
    assert cfg == {"solver.tol": 1e-8,
                   "kernel.profile": "truncated_gaussian",
                   "assembly.dense_cutoff": 64}


@pytest.mark.parametrize("line", ["solver.tol = abc", "assembly.dense_cutoff = 2.5",
                                  "kernel.profile = 3"])
def test_value_of_the_wrong_type_reports_line_number(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text("solver.restart = 50\n" + line + "\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2: " + line.split()[0]):
        load_config(path)


def test_float_keys_take_integers(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("coupling.c_t = 1\n")
    cfg = load_config(path)
    assert cfg["coupling.c_t"] == 1.0 and type(cfg["coupling.c_t"]) is float


def test_unknown_key_reports_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("solver.tol = 1e-8\nsolvr.tol = 1e-8\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2.*solvr\.tol"):
        load_config(path)


def test_missing_equals_sign(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("solver.tol 1e-8\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


def test_every_key_sets_an_option():
    # what guards a run's validity (guardrail ceilings, the oracle's fine
    # quadrature, a study's reference resolution) is a constant, not a key
    assert sorted(DEFAULTS) == [
        "assembly.dense_cutoff", "coupling.c_beta", "coupling.c_t", "coupling.gamma_t",
        "kernel.profile", "solver.max_iter_factor", "solver.method", "solver.restart",
        "solver.tol"]


def test_merged_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("solver.tol = 1e-8\nsolver.restart = 50\n")
    cfg = merged(path, {"solver.tol": 1e-6})
    assert cfg["solver.tol"] == 1e-6          # override beats file
    assert cfg["solver.restart"] == 50        # file beats defaults
    assert cfg["solver.method"] == "auto"     # untouched default survives
    assert set(cfg) == set(DEFAULTS)


def test_merged_skips_none_overrides():
    cfg = merged(None, {"solver.tol": None})
    assert cfg["solver.tol"] == DEFAULTS["solver.tol"]


def test_merged_rejects_unknown_override():
    with pytest.raises(ConfigError, match="nonsense"):
        merged(None, {"nonsense": 1})


def test_defaults_not_mutated(tmp_path):
    before = dict(DEFAULTS)
    path = tmp_path / "run.cfg"
    path.write_text("solver.tol = 1e-8\n")
    merged(path, {"assembly.dense_cutoff": 2})
    assert DEFAULTS == before
