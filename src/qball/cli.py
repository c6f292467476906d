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
import shutil
import sys
import tempfile

import numpy as np

from .potential import (PRESET_KEYS, PotentialSpec, check_admissibility,
                        hylomorphy_constants)
from .hylomorphy import (calibrate_constants, estimate_lambda_star,
                         q_threshold, ratio_bound, ratio_sweep)
from .fields import RadialGrid, fan_out
from .solver import DEFAULT_OMEGA_LIST, SolveOptions, family_sweep, solve_profile
from .dynamics import (CFL_LIMIT, PERTURBATION_MODES, TRACE_COLUMNS, max_dt,
                       stability_probe)

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


_POSITIVE, _NONNEGATIVE = (0, True), (0, False)
# most couplings of one q_range: `solve` runs one family sweep per coupling,
# about 1.5 s on demos/default.cfg, so this many already take 25 minutes,
# and the coupling threshold is closed-form and needs no scan
Q_RANGE_MAX = 1000

# (section, key) -> (converter, default, bound).  The bound is a lower
# limit (value, strict) on every number of the key, or None.
_SCHEMA = {
    ("potential", "preset"): (str, "double_well", None),
    ("potential", "m"): (float, 1.0, _POSITIVE),
    ("potential", "s_bar"): (float, 1.0, None),
    ("potential", "a"): (float, 0.0, None),
    ("potential", "b"): (float, 0.0, None),
    ("grid", "r_max"): (float, 40.0, _POSITIVE),
    ("grid", "n"): (int, 4000, (16, False)),
    ("charge", "q"): (float, 0.0, _NONNEGATIVE),
    ("charge", "q_range"): (_floats, None, _NONNEGATIVE),
    ("solver", "omega_list"): (_floats, DEFAULT_OMEGA_LIST, _POSITIVE),
    ("solver", "delta_list"): (_floats, (), _POSITIVE),
    ("solver", "tol"): (float, SolveOptions.tol, _POSITIVE),
    ("solver", "flow_max_iter"): (int, SolveOptions.flow_max_iter, (1, False)),
    ("solver", "flow_res_tol"): (float, SolveOptions.flow_res_tol, _POSITIVE),
    ("dynamics", "T"): (float, 50.0, _POSITIVE),
    ("dynamics", "dt"): (float, None, _POSITIVE),
    ("dynamics", "eps_list"): (_floats, (0.0, 0.01), _NONNEGATIVE),
    ("dynamics", "modes"): (_strings, PERTURBATION_MODES, None),
    ("dynamics", "sample_every"): (int, 10, (1, False)),
    ("output", "out_dir"): (str, "qball-out", None),
    ("output", "workers"): (int, 1, (1, False)),
    ("output", "seed"): (int, 0, _NONNEGATIVE),
}
# the lists one run sweeps: strictly increasing, and named by {v:g}
_SWEEPS = ("omega_list", "delta_list", "eps_list")
# what a converter that can fail expects, in the config's terms
_EXPECTED = {float: "a number", int: "a whole number",
             _floats: "a list of numbers"}

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
    return _validate(*_read_pairs(path))


def _distinct_names(key, values, line):
    # profile and trace files are named by {v:g}; equal names overwrite
    if len({f"{v:g}" for v in values}) < len(values):
        raise ConfigError(f"{key}: values must differ in their first six "
                          "significant digits", line)


def _validate(pairs, lines):
    """RunConfig from {(section, key): raw text} and the keys' line numbers:
    one pass over _SCHEMA, then the rules that span keys."""
    v = {}
    lines = {key: n for (_, key), n in lines.items()}    # keys are unique
    for (section, key), (conv, default, bound) in _SCHEMA.items():
        raw, line = pairs.get((section, key)), lines.get(key)
        if raw is None:
            v[key] = default
            continue
        try:
            v[key] = conv(raw)
        except ValueError:
            raise ConfigError(f"{key}: cannot parse {raw!r} as "
                              f"{_EXPECTED[conv]}", line) from None
        nums = v[key] if isinstance(v[key], tuple) else (v[key],)
        # the bounds compare with < and <=, which nan passes
        if conv in (float, _floats) and not np.all(np.isfinite(nums)):
            raise ConfigError(f"{key}: must be finite, got {raw!r}", line)
        if bound is not None:
            lo, strict = bound
            if any(x <= lo if strict else x < lo for x in nums):
                raise ConfigError(f"{key}: must be {'>' if strict else '>='} "
                                  f"{lo:g}", line)
        if key in _SWEEPS:
            if default and not nums:    # only delta_list may be empty
                raise ConfigError(f"{key}: must not be empty", line)
            if list(nums) != sorted(set(nums)):
                raise ConfigError(f"{key}: must be strictly increasing", line)
            _distinct_names(key, nums, line)

    potential = {key: v[key] for s, key in _SCHEMA if s == "potential"}
    try:
        spec = PotentialSpec(potential.pop("preset"), **potential)
    except ValueError as exc:
        raise ConfigError(f"potential: {exc}") from None
    for s, key in pairs:
        if s == "potential" and key not in ("preset", *PRESET_KEYS[spec.name]):
            raise ConfigError(f"{key}: preset {spec.name} does not read this "
                              "key", lines[key])

    q_values = (v["q"],)
    if v["q_range"] is not None:
        rng, line = v["q_range"], lines.get("q_range")
        if ("charge", "q") in pairs:
            raise ConfigError("q and q_range are mutually exclusive", line)
        if len(rng) not in (2, 3):
            raise ConfigError("q_range: expected 'lo, hi' or 'lo, hi, count'",
                              line)
        lo, hi, count = rng[0], rng[1], rng[2] if len(rng) == 3 else 5
        # checked before np.linspace expands it
        if not float(count).is_integer() or not 2 <= count <= Q_RANGE_MAX:
            raise ConfigError("q_range: count must be a whole number from 2 "
                              f"to {Q_RANGE_MAX}", line)
        if lo > hi:
            raise ConfigError("q_range: lower bound exceeds upper bound", line)
        q_values = tuple(float(q) for q in np.linspace(lo, hi, int(count)))
        _distinct_names("q_range", q_values, line)

    solve_opts = SolveOptions(**{
        f.name: v[f.name] for f in dataclasses.fields(SolveOptions)})
    dr = v["r_max"] / (v["n"] - 1)      # the spacing of RadialGrid(r_max, n)
    if v["dt"] is not None and v["dt"] > max_dt(dr):
        raise ConfigError(f"dt: exceeds the CFL bound {CFL_LIMIT:g} dr = "
                          f"{CFL_LIMIT * dr:g}", lines["dt"])
    if not v["modes"]:
        raise ConfigError("modes: must not be empty", lines.get("modes"))
    bad = [m for m in v["modes"] if m not in PERTURBATION_MODES]
    if bad:
        raise ConfigError(f"modes: unknown perturbation mode {bad}",
                          lines.get("modes"))
    if len(set(v["modes"])) < len(v["modes"]):
        raise ConfigError("modes: must not repeat", lines.get("modes"))
    parent = os.path.dirname(os.path.abspath(v["out_dir"]))
    if not os.path.isdir(parent):
        raise ConfigError(f"out_dir: parent directory {parent!r} not found",
                          lines.get("out_dir"))
    return RunConfig(spec=spec, q_values=q_values, solve_opts=solve_opts,
                     **{f.name: v[f.name] for f in
                        dataclasses.fields(RunConfig) if f.name in v})


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
    alpha, s_bar = hylomorphy_constants(cfg.spec)
    c1, c6 = calibrate_constants(cfg.spec, cfg.r_max)
    rows = []
    report = [("m", cfg.spec.m), ("alpha", alpha), ("s_bar", s_bar),
              ("c1", c1), ("c6", c6)]
    for i, q in enumerate(cfg.q_values):
        best, best_R = estimate_lambda_star(cfg.spec, q, cfg.r_max)
        for R, ratio in ratio_sweep(cfg.spec, q, cfg.r_max):
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
    report = q_threshold(cfg.spec, cfg.r_max)
    items = sorted(dataclasses.asdict(report).items())
    _write_report(os.path.join(stage, "threshold.txt"), items)
    print(f"threshold: q_bar_est={report.q_bar_est:.6g} "
          f"(closed form, bracket width {report.bisect_rel_width:.1e})")


def _sweep_job(job):
    spec, q, grid, opts, kind, values = job
    return family_sweep(spec, q, grid, opts=opts, **{f"{kind}_list": values})


def _run_solve(cfg, stage):
    grid = cfg.grid()
    jobs = [(cfg.spec, q, grid, cfg.solve_opts, kind, values)
            for q in cfg.q_values
            for kind, values in (("delta", cfg.delta_list),
                                 ("omega", cfg.omega_list))
            if values]
    sweeps = fan_out(_sweep_job, jobs, cfg.workers)

    rows = []
    failures = []
    for sw in sweeps:
        q, kind = sw.q, sw.parameter
        failures += [(kind, value, q, reason) for value, reason in sw.failures]
        for value, prof in zip(sw.values, sw.profiles):
            if prof is None:
                continue
            rows.append((q, kind, value, prof.E, prof.C, prof.Lambda,
                         prof.res1, prof.res2, prof.u0, prof.newton_iters,
                         prof.flow_iters))
            name = f"profile_{kind}{value:g}_q{q:g}.txt"
            prof.state.save(os.path.join(stage, name), prof.phi,
                            m=cfg.spec.m, omega=prof.omega,
                            delta=value if kind == "delta" else None)
    n_points = len(rows) + len(failures)
    _write_csv(os.path.join(stage, "sweep.csv"),
               ("q", "mode", "omega_or_delta", "E", "C", "Lambda",
                "res1", "res2", "u0", "newton_iters", "flow_iters"), rows)
    summary = [("n_points", n_points), ("n_ok", len(rows)),
               ("n_failures", len(failures))]
    for i, (kind, value, q, reason) in enumerate(failures):
        summary.append((f"failure_{i}", f"{kind}={value:g} q={q:g}: {reason}"))
    _write_report(os.path.join(stage, "solve.txt"), summary)
    print(f"solve: {len(rows)} of {n_points} points converged, "
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
    runs = sorted(report.runs, key=lambda r: r.name)
    unperturbed = next(r for r in runs if r.mode is None)
    dt = unperturbed.trace.dt
    summary = [("q", q), ("omega", omega), ("T", cfg.T), ("dt", dt),
               ("steps", int(round(cfg.T / dt))),
               ("n_runs", len(runs)), ("profile_norm", report.profile_norm),
               ("unperturbed_rel_distance",
                unperturbed.max_distance / report.profile_norm),
               ("lift_offset", report.lift_offset)]
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
_DISPATCH["all"] = [stage for stages in _DISPATCH.values() for stage in stages]
SUBCOMMANDS = tuple(_DISPATCH)


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
    except BaseException:
        # an interrupt or exit from a stage leaves no tree, staged or not
        shutil.rmtree(stage)
        raise
    os.rename(stage, out_dir)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qball",
        description="Charged scalar soliton laboratory: admissibility "
                    "checks, binding-ratio estimates, stationary profiles, "
                    "and evolution probes on a radial grid.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True,
                        help="path to a key=value run configuration")
    parser.add_argument("--out", dest="out_dir",
                        help="output directory (overrides config)")
    parser.add_argument("--workers", help="worker processes (overrides config)")
    parser.add_argument("--seed", help="noise seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        pairs, lines = _read_pairs(args.config)
        # an override is checked like the [output] key it replaces
        for key in ("out_dir", "workers", "seed"):
            if getattr(args, key) is not None:
                pairs[("output", key)] = getattr(args, key)
                lines.pop(("output", key), None)
        config = _validate(pairs, lines)
    except FileNotFoundError:
        print(f"error: config file {args.config!r} not found",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, config)


if __name__ == "__main__":
    sys.exit(main())
