"""Seeded workload plans for the qball benchmark and the checks on their output.

A plan is the list of CLI invocations one pass makes.  It depends only
on the workload name and the seed; the program sees nothing but the
generated config files.  Every pass of a run repeats the same plan, so
the artifacts of all passes must hash the same.

Each check tests an invariant of the science, not frozen bytes, so an
artifact that legitimately changes (an exact threshold, say) still
passes.  One operation is one CLI invocation, one sweep point or one
evolution run; a check returns how many it attempted and how many of
them failed.
"""

import csv
import dataclasses
import hashlib
import math
import os
import random

WORKLOADS = ("potential-survey", "solve-family", "evolve-probe")

SURVEY_POTENTIALS = 24          # potentials per survey pass
SURVEY_SUBCOMMANDS = ("check-potential", "hylomorphy", "threshold")
SOLVE_BINS = 5                  # omega strata over (OMEGA_LO, OMEGA_HI)
OMEGA_LO, OMEGA_HI = 0.5, 0.95
SOLVE_DELTA = 2e-4              # the descent point of demos/default.cfg
SOLVE_TOL, FLOW_RES_TOL = 1e-6, 5e-5    # the SolveOptions defaults
SOLVE_GRID = (40.0, 4000)       # (r_max, n): the default grid
EVOLVE_GRID = (40.0, 2000)      # coarser, so several evolve passes fit in a run
EVOLVE_T = 10.0                 # long enough that stepping is most of a pass
EVOLVE_KICK_MODES = 2           # kicked runs besides the unperturbed one
DRIFT_TOL = 1e-5                # unperturbed relative E and C drift
ROUNDOFF = 1e-12


@dataclasses.dataclass(frozen=True)
class Invocation:
    """One CLI call: ``qball <subcommand> --config <name>.cfg --out <name>``."""

    name: str
    subcommand: str
    config: str


def config_text(sections):
    """Render {section: {key: value}} as a qball config; floats round-trip."""
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        for key, value in items.items():
            if isinstance(value, (tuple, list)):
                value = ", ".join(repr(v) for v in value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def stratified(rng, lo, hi, bins):
    """One uniform draw per equal-width bin of (lo, hi), in increasing order."""
    width = (hi - lo) / bins
    return tuple(lo + (k + rng.uniform(0.01, 0.99)) * width
                 for k in range(bins))


def survey_plan(seed):
    """Alternate double_well (m, s_bar) and poly46 (a, b) potentials.

    poly46 takes a = f sqrt(16 m^2 b / 3) with f < 1, which keeps W
    positive, and f >= 0.85, which keeps the binding witness
    alpha = m sqrt(1 - f^2) well below m.
    """
    rng = random.Random(seed)
    plan = []
    for i in range(SURVEY_POTENTIALS):
        m = rng.uniform(0.8, 1.2)
        if i % 2 == 0:
            potential = dict(preset="double_well", m=m,
                             s_bar=rng.uniform(0.7, 1.5))
        else:
            b = rng.uniform(0.5, 2.0)
            f = rng.uniform(0.85, 0.97)
            potential = dict(preset="poly46", m=m,
                             a=f * math.sqrt(16.0 * m * m * b / 3.0), b=b)
        text = config_text({
            "potential": potential,
            "charge": {"q_range": (0.0, rng.uniform(0.01, 0.1), 3.0)},
            "output": {"workers": 1, "seed": seed},
        })
        plan += [Invocation(f"p{i:02d}-{sub}", sub, text)
                 for sub in SURVEY_SUBCOMMANDS]
    return plan


def solve_plan(seed):
    """One ``solve``: stratified omegas and one descent point at one coupling.

    The coupling stays far below the trial-state threshold (about 0.22
    for the default double well), where every omega in the range has a
    profile.
    """
    rng = random.Random(seed)
    text = config_text({
        "potential": {"preset": "double_well"},
        "grid": {"r_max": SOLVE_GRID[0], "n": SOLVE_GRID[1]},
        "charge": {"q": rng.uniform(0.005, 0.05)},
        "solver": {"omega_list": stratified(rng, OMEGA_LO, OMEGA_HI,
                                            SOLVE_BINS),
                   "delta_list": (SOLVE_DELTA,),
                   "tol": SOLVE_TOL, "flow_res_tol": FLOW_RES_TOL},
        "output": {"workers": 1, "seed": seed},
    })
    return [Invocation("solve", "solve", text)]


def evolve_plan(seed):
    """One ``evolve``: a charged profile near omega = 0.8, unperturbed plus kicks."""
    rng = random.Random(seed)
    modes = sorted(rng.sample(("amplitude", "velocity", "noise"),
                              EVOLVE_KICK_MODES))
    text = config_text({
        "potential": {"preset": "double_well"},
        "grid": {"r_max": EVOLVE_GRID[0], "n": EVOLVE_GRID[1]},
        "charge": {"q": rng.uniform(0.01, 0.05)},
        "solver": {"omega_list": (rng.uniform(0.78, 0.82),)},
        "dynamics": {"T": EVOLVE_T, "eps_list": (0.0, rng.uniform(0.005, 0.02)),
                     "modes": ", ".join(modes), "sample_every": 10},
        "output": {"workers": 1, "seed": seed},
    })
    return [Invocation("evolve", "evolve", text)]


PLANS = {"potential-survey": survey_plan, "solve-family": solve_plan,
         "evolve-probe": evolve_plan}


# ---------------------------------------------------------------------------
# reading artifacts


def read_report(path):
    """key=value report file as a dict of strings."""
    with open(path) as f:
        return dict(line.rstrip("\n").split("=", 1) for line in f if "=" in line)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def parse_config_values(text):
    """{key: raw value} of a generated config (keys are unique across sections)."""
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def digests(root):
    """sha256 of every file under root, keyed by its path relative to root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = hashlib.sha256(
                    f.read()).hexdigest()
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# output checks: each returns (attempted, failed, [problem, ...])


def _check_survey(inv, out, code):
    if code != 0:
        return 1, 1, [f"{inv.name}: exit {code}"]
    if inv.subcommand == "check-potential":
        rep = read_report(os.path.join(out, "admissibility.txt"))
        ok = (rep["positivity"] == rep["nondegenerate"] == rep["hylomorphy"]
              == "true" and rep["growth"] in ("pass", "marginal"))
        problem = "admissibility verdict is not pass"
    elif inv.subcommand == "hylomorphy":
        rep = read_report(os.path.join(out, "hylomorphy.txt"))
        ok = float(rep["q_0"]) == 0.0 and rep["hylomorphic_0"] == "true"
        problem = "not hylomorphic at q=0"
    else:
        rep = read_report(os.path.join(out, "threshold.txt"))
        m = float(rep["lambda0_bound"])
        ok = (float(rep["q_bar_est"]) > 0.0
              and float(rep["best_ratio"]) <= m * (1.0 + ROUNDOFF))
        problem = "q_bar_est <= 0 or best ratio above m"
    return 1, int(not ok), [] if ok else [f"{inv.name}: {problem}"]


def _check_solve(inv, out, code):
    """Every point converged to the tolerance of its route.

    The direct (omega) route targets ``tol``; the descent (delta) route
    targets ``flow_res_tol``, since it stops on a stalled J decrease
    with a field residual of a few 1e-6, above ``tol``.
    """
    cfg = parse_config_values(inv.config)
    n_points = len(cfg["omega_list"].split(",")) + len(
        cfg["delta_list"].split(","))
    attempted = 1 + n_points
    if code != 0:
        return attempted, attempted, [f"{inv.name}: exit {code}"]
    tol = {"omega": float(cfg["tol"]), "delta": float(cfg["flow_res_tol"])}
    problems = []
    bad = set()         # (mode, value) of listed points that fail a check
    rows = read_csv(os.path.join(out, "sweep.csv"))
    for row in rows:
        point = (row["mode"], row["omega_or_delta"])
        limit = tol[row["mode"]]
        if not (float(row["res1"]) < limit and float(row["res2"]) < limit):
            bad.add(point)
            problems.append(f"{row['mode']}={row['omega_or_delta']}: "
                            f"res1={row['res1']} res2={row['res2']}")
        profile = (f"profile_{row['mode']}{float(row['omega_or_delta']):g}"
                   f"_q{float(row['q']):g}.txt")
        if not os.path.isfile(os.path.join(out, profile)):
            bad.add(point)
            problems.append(f"missing {profile}")
    missing = n_points - len(rows)
    if missing:
        problems.append(f"{missing} sweep points did not converge")
    return attempted, missing + len(bad), problems


def _check_evolve(inv, out, code):
    cfg = parse_config_values(inv.config)
    n_runs = 1 + len(cfg["modes"].split(","))
    attempted = 1 + n_runs
    if code != 0:
        return attempted, attempted, [f"{inv.name}: exit {code}"]
    problems = []
    traces = sorted(n for n in os.listdir(out) if n.startswith("trace_"))
    if len(traces) != n_runs:
        problems.append(f"{len(traces)} traces, expected {n_runs}")
    for name in traces:
        rows = read_csv(os.path.join(out, name))
        values = [float(v) for row in rows for v in row.values()]
        if not rows or not all(math.isfinite(v) for v in values):
            problems.append(f"{name}: blow-up or empty trace")
            continue
        if name == "trace_unperturbed.csv":
            e0, c0 = float(rows[0]["E"]), float(rows[0]["C"])
            e_drift = max(abs(float(r["E"]) - e0) for r in rows) / abs(e0)
            c_drift = max(abs(float(r["C"]) - c0) for r in rows) / abs(c0)
            if not (e_drift <= DRIFT_TOL and c_drift <= DRIFT_TOL):
                problems.append(f"unperturbed drift E {e_drift:.3g} "
                                f"C {c_drift:.3g} above {DRIFT_TOL:g}")
    return attempted, min(n_runs, len(problems)), problems


CHECKS = {"potential-survey": _check_survey, "solve-family": _check_solve,
          "evolve-probe": _check_evolve}
