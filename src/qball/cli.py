"""Batch driver: config parsing, subcommand dispatch, artifact emission.

Configs are flat ``key = value`` files with ``[section]`` headers; every
key has a default, unknown keys are errors.  Artifacts land in a fresh
output directory written atomically (staged in a temp dir, renamed on
success), so a failed run never leaves a partial tree behind.  All
floats are printed with 17 significant digits and nothing emits
timestamps, which makes reruns byte-identical.

Exit codes: 0 success (including sweeps with recorded per-point
failures), 1 downstream numerical failure (a failure record is still
written), 2 config or usage errors.
"""

import argparse
import dataclasses
import os
import re
import sys
import tempfile

import numpy as np

from .potential import (PRESET_KEYS, PotentialSpec, check_admissibility,
                        hylomorphy_constants)
from .hylomorphy import calibrate_constants, q_threshold, ratio_bound, ratio_sweep
from .fields import RadialGrid, fan_out
from .solver import DEFAULT_OMEGA_LIST, SolveOptions, family_sweep, solve_profile
from .dynamics import (CFL_LIMIT, PERTURBATION_MODES, TRACE_COLUMNS, max_dt,
                       stability_probe)

SUBCOMMANDS = ("check-potential", "hylomorphy", "solve", "evolve",
               "threshold", "all")


class ConfigError(ValueError):
    """Raised for unparsable or invalid configuration input."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class SubcommandFailure(RuntimeError):
    """Downstream error annotated with the module and operation that raised."""

    def __init__(self, module, operation, cause):
        super().__init__(f"{module}.{operation}: {cause}")
        self.module = module
        self.operation = operation
        self.cause = cause


# ---------------------------------------------------------------------------
# configuration


@dataclasses.dataclass
class RunConfig:
    spec: PotentialSpec
    r_max: float
    n: int
    q_values: tuple
    omega_list: tuple
    delta_list: tuple
    solve_opts: SolveOptions
    T: float
    dt: float | None
    eps_list: tuple
    modes: tuple
    sample_every: int
    out_dir: str
    workers: int
    seed: int

    def grid(self):
        return RadialGrid(self.r_max, self.n)


def _floats(text):
    toks = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    return tuple(float(t) for t in toks)


def _strings(text):
    return tuple(t for t in re.split(r"[,\s]+", text.strip()) if t)


# (section, key) -> converter; None means keep the raw string
_SCHEMA = {
    ("potential", "preset"): str,
    **{("potential", k): float for keys in PRESET_KEYS.values() for k in keys},
    ("grid", "r_max"): float,
    ("grid", "n"): int,
    ("charge", "q"): float,
    ("charge", "q_range"): _floats,
    ("solver", "omega_list"): _floats,
    ("solver", "delta_list"): _floats,
    # every SolveOptions field is a [solver] key of its own type
    **{("solver", f.name): f.type for f in dataclasses.fields(SolveOptions)},
    ("dynamics", "T"): float,
    ("dynamics", "dt"): float,
    ("dynamics", "eps_list"): _floats,
    ("dynamics", "modes"): _strings,
    ("dynamics", "sample_every"): int,
    ("output", "out_dir"): str,
    ("output", "workers"): int,
    ("output", "seed"): int,
}

_SECTIONS = {s for s, _ in _SCHEMA}


def _read_pairs(path):
    """Tokenize a config file into {(section, key): value} with line numbers."""
    pairs = {}
    lines = {}
    section = None
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            stripped = line.strip()
            col = len(line) - len(line.lstrip()) + 1
            if stripped.startswith("["):
                if not stripped.endswith("]"):
                    raise ConfigError("unterminated section header",
                                      lineno, col)
                section = stripped[1:-1].strip()
                if section not in _SECTIONS:
                    raise ConfigError(f"unknown section [{section}]",
                                      lineno, col)
                continue
            if "=" not in stripped:
                raise ConfigError("expected 'key = value'", lineno, col)
            key, value = stripped.split("=", 1)
            key = key.strip()
            value = value.strip()
            if section is None:
                raise ConfigError(f"key {key!r} appears before any section",
                                  lineno, col)
            if (section, key) not in _SCHEMA:
                raise ConfigError(f"unknown key {key!r} in [{section}]",
                                  lineno, col)
            if (section, key) in pairs:
                raise ConfigError(f"duplicate key {key!r} in [{section}]",
                                  lineno, col)
            pairs[(section, key)] = value
            lines[(section, key)] = lineno
    return pairs, lines


def parse_config(path):
    """Parse and validate a run configuration; defaults fill missing keys."""
    pairs, lines = _read_pairs(path)
    values = {}
    for sk, raw in pairs.items():
        conv = _SCHEMA[sk]
        try:
            values[sk] = conv(raw)
        except ValueError:
            raise ConfigError(
                f"{sk[1]}: cannot parse {raw!r} as {conv.__name__}",
                lines[sk]) from None

    def get(section, key, default):
        return values.get((section, key), default)

    def distinct_names(section, key, vals):
        # profile and trace files are named by {v:g}; equal names overwrite
        if len({f"{v:g}" for v in vals}) < len(vals):
            raise ConfigError(f"{key}: values must differ in their first six "
                              "significant digits", lines.get((section, key)))

    potential = {k: v for (sec, k), v in values.items() if sec == "potential"}
    try:
        spec = PotentialSpec(potential.pop("preset", "double_well"), **potential)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None
    unread = sorted(potential.keys() - set(PRESET_KEYS[spec.name]))
    if unread:
        raise ConfigError(f"{unread[0]}: preset {spec.name} does not read "
                          "this key", lines[("potential", unread[0])])

    r_max = get("grid", "r_max", 40.0)
    n = get("grid", "n", 4000)
    if r_max <= 0:
        raise ConfigError("r_max: must be positive")
    if n < 16:
        raise ConfigError("n: need at least 16 grid points")

    if ("charge", "q") in values and ("charge", "q_range") in values:
        raise ConfigError("q and q_range are mutually exclusive")
    if ("charge", "q_range") in values:
        rng = values[("charge", "q_range")]
        if len(rng) not in (2, 3):
            raise ConfigError("q_range: expected 'lo, hi' or 'lo, hi, count'",
                              lines[("charge", "q_range")])
        lo, hi = rng[0], rng[1]
        count = int(rng[2]) if len(rng) == 3 else 5
        if lo > hi:
            raise ConfigError("q_range: lower bound exceeds upper bound",
                              lines[("charge", "q_range")])
        if lo < 0:
            raise ConfigError("q_range: couplings must be nonnegative",
                              lines[("charge", "q_range")])
        if count < 2:
            raise ConfigError("q_range: count must be at least 2",
                              lines[("charge", "q_range")])
        q_values = tuple(float(q) for q in np.linspace(lo, hi, count))
        distinct_names("charge", "q_range", q_values)
    else:
        q = get("charge", "q", 0.0)
        if q < 0:
            raise ConfigError("q: coupling must be nonnegative")
        q_values = (q,)

    omega_list = get("solver", "omega_list", tuple(DEFAULT_OMEGA_LIST))
    if not omega_list:
        raise ConfigError("omega_list: must not be empty")
    if any(w <= 0 for w in omega_list):
        raise ConfigError("omega_list: frequencies must be positive")
    if list(omega_list) != sorted(set(omega_list)):
        raise ConfigError("omega_list: must be strictly increasing")
    distinct_names("solver", "omega_list", omega_list)

    delta_list = get("solver", "delta_list", ())
    if any(d <= 0 for d in delta_list):
        raise ConfigError("delta_list: weights must be positive")
    if list(delta_list) != sorted(set(delta_list)):
        raise ConfigError("delta_list: must be strictly increasing")
    distinct_names("solver", "delta_list", delta_list)

    try:
        solve_opts = SolveOptions(**{
            f.name: values[("solver", f.name)]
            for f in dataclasses.fields(SolveOptions)
            if ("solver", f.name) in values})
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from None

    T = get("dynamics", "T", 50.0)
    if T <= 0:
        raise ConfigError("T: horizon must be positive")
    dt = get("dynamics", "dt", None)
    if dt is not None and dt <= 0:
        raise ConfigError("dt: step must be positive")
    dr = r_max / (n - 1)      # the spacing of RadialGrid(r_max, n)
    if dt is not None and dt > max_dt(dr):
        raise ConfigError(f"dt: exceeds the CFL bound {CFL_LIMIT:g} dr = "
                          f"{CFL_LIMIT * dr:g}", lines[("dynamics", "dt")])
    eps_list = get("dynamics", "eps_list", (0.0, 0.01))
    if not eps_list:
        raise ConfigError("eps_list: must not be empty")
    if any(e < 0 for e in eps_list):
        raise ConfigError("eps_list: amplitudes must be nonnegative")
    if list(eps_list) != sorted(set(eps_list)):
        raise ConfigError("eps_list: must be strictly increasing")
    distinct_names("dynamics", "eps_list", eps_list)
    modes = get("dynamics", "modes", PERTURBATION_MODES)
    bad = [m for m in modes if m not in PERTURBATION_MODES]
    if bad or not modes:
        raise ConfigError(f"modes: unknown perturbation mode {bad}")
    if len(set(modes)) < len(modes):
        raise ConfigError("modes: must not repeat")
    sample_every = get("dynamics", "sample_every", 10)
    if sample_every < 1:
        raise ConfigError("sample_every: must be at least 1")

    out_dir = get("output", "out_dir", "qball-out")
    parent = os.path.dirname(os.path.abspath(out_dir))
    if not os.path.isdir(parent):
        raise ConfigError(f"out_dir: parent directory {parent!r} not found")
    workers = get("output", "workers", 1)
    if workers < 1:
        raise ConfigError("workers: must be at least 1")
    seed = get("output", "seed", 0)
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")

    return RunConfig(spec=spec, r_max=r_max, n=n, q_values=q_values,
                     omega_list=tuple(omega_list),
                     delta_list=tuple(delta_list), solve_opts=solve_opts,
                     T=T, dt=dt, eps_list=tuple(eps_list),
                     modes=tuple(modes), sample_every=sample_every,
                     out_dir=out_dir, workers=workers, seed=seed)


# ---------------------------------------------------------------------------
# artifact writers


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_report(path, items):
    with open(path, "w") as f:
        for k, v in items:
            f.write(f"{k}={_fmt(v)}\n")


def _write_csv(path, names, rows):
    with open(path, "w") as f:
        f.write(",".join(names) + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies (each writes into the staging directory)


def _run_check_potential(cfg, stage):
    report = check_admissibility(cfg.spec)
    items = sorted(report.as_dict().items())
    _write_report(os.path.join(stage, "admissibility.txt"), items)
    print(f"check-potential: preset={cfg.spec.name} "
          f"verdict={'pass' if report.admissible else 'fail'}")
    for k, v in items:
        print(f"  {k} = {_fmt(v)}")


def _run_hylomorphy(cfg, stage):
    grid = cfg.grid()
    alpha, s_bar = hylomorphy_constants(cfg.spec, "max_threshold")
    c1, c6 = calibrate_constants(cfg.spec, grid, alpha=alpha, s_bar=s_bar)
    rows = []
    report = [("m", cfg.spec.m), ("alpha", alpha), ("s_bar", s_bar),
              ("c1", c1), ("c6", c6)]
    for i, q in enumerate(cfg.q_values):
        sweep = ratio_sweep(cfg.spec, q, grid, alpha=alpha, s_bar=s_bar)
        best_R, best = min(sweep, key=lambda t: t[1])
        for R, ratio in sweep:
            bound = ratio_bound(alpha, s_bar, q, R, c1, c6)
            verdict = ("hylomorphic" if ratio < cfg.spec.m
                       else "not-hylomorphic")
            rows.append((q, R, ratio, bound, verdict))
        report += [(f"q_{i}", q), (f"best_ratio_{i}", best),
                   (f"best_R_{i}", best_R),
                   (f"hylomorphic_{i}", best < cfg.spec.m)]
        print(f"hylomorphy: q={q:g} best ratio {best:.6g} at R={best_R:g} "
              f"({'below' if best < cfg.spec.m else 'above'} m={cfg.spec.m:g})")
    _write_csv(os.path.join(stage, "hylomorphy.csv"),
               ("q", "R", "ratio", "bound", "verdict"), rows)
    _write_report(os.path.join(stage, "hylomorphy.txt"), report)


def _run_threshold(cfg, stage):
    report = q_threshold(cfg.spec, cfg.grid())
    items = sorted(dataclasses.asdict(report).items())
    _write_report(os.path.join(stage, "threshold.txt"), items)
    print(f"threshold: q_bar_est={report.q_bar_est:.6g} "
          f"(closed form, bracket width {report.bisect_rel_width:.1e})")


def _solve_point(point):
    """Worker: one point as a one-point, hence cold, family_sweep.

    Returns (q, kind, value, profile, error); one of the last two is None.
    """
    spec, grid, opts, q, kind, value = point
    sweep = family_sweep(spec, q, grid, opts=opts, **{f"{kind}_list": [value]})
    error = sweep.failures[0][1] if sweep.failures else None
    return q, kind, value, sweep.profiles[0], error


def _run_solve(cfg, stage):
    grid = cfg.grid()
    points = [(cfg.spec, grid, cfg.solve_opts, q, kind, value)
              for q in cfg.q_values
              for kind, values in (("omega", cfg.omega_list),
                                   ("delta", cfg.delta_list))
              for value in values]
    results = sorted(fan_out(_solve_point, points, cfg.workers),
                     key=lambda r: r[:3])

    rows = []
    failures = []
    for q, kind, value, prof, error in results:
        if error is not None:
            failures.append((kind, value, q, error))
            continue
        rows.append((q, kind, value, prof.E, prof.C, prof.Lambda,
                     prof.res1, prof.res2, prof.u0))
        name = f"profile_{kind}{value:g}_q{q:g}.txt"
        prof.state.save(os.path.join(stage, name), m=cfg.spec.m,
                        omega=prof.omega,
                        delta=value if kind == "delta" else None)
    _write_csv(os.path.join(stage, "sweep.csv"),
               ("q", "mode", "omega_or_delta", "E", "C", "Lambda",
                "res1", "res2", "u0"), rows)
    summary = [("n_points", len(results)), ("n_ok", len(rows)),
               ("n_failures", len(failures))]
    for i, (kind, value, q, reason) in enumerate(failures):
        summary.append((f"failure_{i}", f"{kind}={value:g} q={q:g}: {reason}"))
    _write_report(os.path.join(stage, "solve.txt"), summary)
    print(f"solve: {len(rows)} of {len(results)} points converged, "
          f"{len(failures)} failures")
    for kind, value, q, reason in failures:
        print(f"  failed {kind}={value:g} q={q:g}: {reason}")


def _run_evolve(cfg, stage):
    q = cfg.q_values[0]
    omega = cfg.omega_list[0]
    try:
        prof = solve_profile(cfg.spec, omega, q, cfg.grid(), cfg.solve_opts)
    except Exception as exc:
        raise SubcommandFailure("solver", "solve_profile", exc) from exc
    # the unperturbed run is always part of the probe
    report = stability_probe(prof, cfg.spec, sorted({0.0, *cfg.eps_list}),
                             cfg.T, cfg.dt, cfg.sample_every, cfg.modes,
                             cfg.seed, cfg.workers)
    for r in report.runs:
        if r.failure is not None:
            raise r.failure

    runs = sorted(report.runs, key=lambda r: r.name)
    summary = [("q", q), ("omega", omega), ("T", cfg.T),
               ("n_runs", len(runs))]
    for r in runs:
        cols = r.trace.columns()
        rows = zip(*(cols[k] for k in TRACE_COLUMNS))
        _write_csv(os.path.join(stage, f"trace_{r.name}.csv"),
                   TRACE_COLUMNS, rows)
        summary += [(f"{r.name}_max_distance", r.max_distance),
                    (f"{r.name}_ratio", r.max_ratio),
                    (f"{r.name}_classification", r.classification)]
        print(f"evolve: {r.name} max distance {r.max_distance:.6g} "
              f"ratio {r.max_ratio:.3g} -> {r.classification}")
    _write_report(os.path.join(stage, "evolve.txt"), summary)


_DISPATCH = {
    "check-potential": [("potential", "check_admissibility",
                         _run_check_potential)],
    "hylomorphy": [("hylomorphy", "ratio_sweep", _run_hylomorphy)],
    "threshold": [("hylomorphy", "q_threshold", _run_threshold)],
    "solve": [("solver", "solve_profile", _run_solve)],
    "evolve": [("dynamics", "stability_probe", _run_evolve)],
}
_DISPATCH["all"] = (_DISPATCH["check-potential"] + _DISPATCH["hylomorphy"]
                    + _DISPATCH["threshold"] + _DISPATCH["solve"]
                    + _DISPATCH["evolve"])


def run(subcommand, config):
    """Execute one subcommand; returns the process exit status."""
    if subcommand not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    out_dir = os.path.abspath(config.out_dir)
    if os.path.exists(out_dir):
        print(f"error: output directory {out_dir} already exists",
              file=sys.stderr)
        return 2
    parent = os.path.dirname(out_dir)
    stage = tempfile.mkdtemp(dir=parent, prefix=".qball-stage-")
    try:
        for module, operation, body in _DISPATCH[subcommand]:
            try:
                body(config, stage)
            except SubcommandFailure:
                raise  # already labelled by the stage that failed
            except Exception as exc:
                raise SubcommandFailure(module, operation, exc) from exc
    except SubcommandFailure as fail:
        for name in os.listdir(stage):
            os.remove(os.path.join(stage, name))
        _write_report(os.path.join(stage, "failure.txt"),
                      [("subcommand", subcommand),
                       ("module", fail.module),
                       ("operation", fail.operation),
                       ("error", type(fail.cause).__name__),
                       ("message", str(fail.cause))])
        os.rename(stage, out_dir)
        print(f"error: {fail}", file=sys.stderr)
        return 1
    os.rename(stage, out_dir)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qball",
        description="Charged scalar soliton laboratory: admissibility "
                    "checks, binding-ratio estimates, stationary profiles, "
                    "and evolution probes on a radial grid.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to a key=value run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--workers", type=int,
                       help="worker processes (overrides config)")
        p.add_argument("--seed", type=int,
                       help="noise seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
    except FileNotFoundError:
        print(f"error: config file {args.config!r} not found",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    replacements = {}
    if args.out is not None:
        replacements["out_dir"] = args.out
    if args.workers is not None:
        if args.workers < 1:
            print("error: --workers must be at least 1", file=sys.stderr)
            return 2
        replacements["workers"] = args.workers
    if args.seed is not None:
        if args.seed < 0:
            print("error: --seed must be nonnegative", file=sys.stderr)
            return 2
        replacements["seed"] = args.seed
    if replacements:
        config = dataclasses.replace(config, **replacements)
    return run(args.subcommand, config)


if __name__ == "__main__":
    sys.exit(main())
