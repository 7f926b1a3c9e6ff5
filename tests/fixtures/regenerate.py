"""Recompute the committed regression fixtures.

Run from the repository root:

    python3 tests/fixtures/regenerate.py

The fixtures pin the outputs of deterministic pilot runs (error values of
the built-in study configurations) so later code changes that shift the
numerics are caught.  Regenerate only when a deliberate behavior change
makes the old values stale, and review the diff.
"""

import json
import os
import warnings

from pim import analysis, pointcloud

HERE = os.path.dirname(os.path.abspath(__file__))


def write(name, payload):
    path = os.path.join(HERE, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")


def interval_sweep_fixture():
    case = analysis.get_case("interval_sine")
    sweep = analysis.convergence_sweep(case, levels=(101, 201, 401, 801))
    rows = []
    for r in sweep.rows:
        rows.append({
            "level": r.level, "n": r.n, "h": r.h, "t": r.t, "beta": r.beta,
            "l2_error": r.l2_error, "h1_error": r.h1_error,
            "boundary_l2_error": r.boundary_l2_error,
            "lemma_ratio": r.lemma["ratio"],
        })
    ratios = [row["lemma_ratio"] for row in rows]
    write("interval_sweep.json", {
        "case": "interval_sine",
        "levels": [101, 201, 401, 801],
        "coupling": {"c_t": analysis.Coupling().c_t,
                     "gamma_t": analysis.Coupling().gamma_t,
                     "c_beta": analysis.Coupling().c_beta},
        "rows": rows,
        "lemma_ratio_bound": max(ratios),
    })
    return sweep


def error_floor_fixture(sweep):
    # Freeze t and beta at the coarsest sweep level, then halve h twice.
    t = sweep.rows[0].t
    beta = sweep.rows[0].beta
    case = analysis.get_case("interval_sine")
    study = analysis.error_floor_study(case, t=t, beta=beta,
                                       levels=(101, 201, 401))
    write("error_floor.json", {
        "case": "interval_sine",
        "t": t,
        "beta": beta,
        "levels": [101, 201, 401],
        "l2_errors": [r.l2_error for r in study.rows],
    })


def robin_gap_fixture():
    case = analysis.get_case("interval_sine")
    with warnings.catch_warnings():
        # t is deliberately tiny relative to h here; the density guardrail
        # warns but every row is still computed.
        warnings.simplefilter("ignore", RuntimeWarning)
        study = analysis.robin_gap_study(case, t=1e-4, n=2001,
                                         betas=(0.4, 0.2, 0.1))
    write("robin_gap.json", {
        "case": "interval_sine",
        "t": 1e-4,
        "n": 2001,
        "betas": [0.4, 0.2, 0.1],
        "boundary_l2_errors": [r.boundary_l2_error for r in study.rows],
        "flagged": [bool(r.flags) for r in study.rows],
    })


def cap_case_fixture():
    case = analysis.get_case("cap_linear")
    coupling = analysis.Coupling()
    out = {"case": "cap_linear", "resolutions": [2000, 8000]}
    errors = []
    for res in out["resolutions"]:
        cloud = pointcloud.generate(case.spec.with_resolution(res))
        h = cloud.metadata["h"]
        t = coupling.t_of(h)
        beta = coupling.beta_of(t)
        interp, _ = analysis.solve_case_on_cloud(case, cloud, t, beta)
        ref = pointcloud.generate(case.spec.with_resolution(4 * cloud.n))
        errors.append(analysis.l2_error(interp, case, ref, relative=True))
    out["relative_l2_errors"] = errors
    # Committed bound: the pilot value with 2% headroom, so bit-level noise
    # from library updates does not flip the gate while real regressions do.
    out["relative_l2_bound"] = errors[0] * 1.02
    write("cap_case.json", out)


def main():
    sweep = interval_sweep_fixture()
    error_floor_fixture(sweep)
    robin_gap_fixture()
    cap_case_fixture()


if __name__ == "__main__":
    main()
