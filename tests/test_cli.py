"""Config parsing, subcommand artifacts, determinism, failure records."""

import csv
import hashlib
import inspect
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from qball import cli, hylomorphy
from qball.cli import _SCHEMA, ConfigError, main, parse_config, run
from qball.dynamics import (DEFAULT_DT_FACTOR, PERTURBATION_MODES,
                            stability_probe)
from qball.fields import RadialGrid
from qball.potential import default_potential
from qball.solver import (DEFAULT_OMEGA_LIST, SolveOptions, family_sweep,
                          solve_profile)

# the deliberately small grids here leave visible profile tails
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def _small(tmp_path, out_name, extra="", eps_list="0.01", omega_list="0.8"):
    return _cfg(tmp_path, f"""
        [potential]
        preset = double_well

        [grid]
        r_max = 20.0
        n = 600

        [charge]
        q = 0.01

        [solver]
        omega_list = {omega_list}

        [dynamics]
        T = 1.0
        eps_list = {eps_list}
        modes = amplitude
        sample_every = 20

        [output]
        out_dir = {tmp_path / out_name}
        {extra}
        """)


# sha256 of every check-potential, hylomorphy, threshold, solve and evolve
# artifact of
# the _tiny config, taken with numpy 2.4.6 and scipy 1.17.1 on x86-64 (the
# versions the CI workflow pins).  Results are byte-identical for a given
# config, seed and build, so a changed digest is a changed result and must
# be a deliberate, recorded decision.
TINY_DIGESTS = {
    "check-potential/admissibility.txt":
        "b41071654f9084eb61e8194f9d360023f8cf18a7837bfa3bed24436bb2ba8339",
    "hylomorphy/hylomorphy.csv":
        "9638b0942754dd164efc959b00768f3891aeec248c21ca016e8246076c3cc70b",
    "hylomorphy/hylomorphy.txt":
        "c45259081936d4db4d596bcf7aaead92968468d2bf746a8788c3ef9aa96cd380",
    "threshold/threshold.txt":
        "3f5dffab54b95980c0ec7bd2afd068ec3611d0b1edb6f15444b6c678be4d4172",
    "solve/profile_omega0.7_q0.01.txt":
        "ba5cb79613e11abac9f77a254db7113d84b2b2a38bc98329926e27d80f42380e",
    "solve/profile_omega0.8_q0.01.txt":
        "7a52a6e33bb0358011275c2eb17810bd0e8447a082e945091f6d64811b84055e",
    "solve/solve.txt":
        "81f4bcf656e778ec8c247455d923a3173aa8cef89061cae174e37278dc7084ae",
    "solve/sweep.csv":
        "eb673d58556fed4591b49353e8cf5c3a6e524e9e6e6904966544aec76aab469b",
    "evolve/evolve.txt":
        "52614ecb7ae82208dbe1e7e0da280b9ce0ad951cefba3bd6eb39d5032f8af986",
    "evolve/trace_amplitude_eps0.01.csv":
        "34f5ba93431ecc5516298be08aec534a1d21762400a9d0646c28237f38368cdd",
    "evolve/trace_noise_eps0.01.csv":
        "d03d66569305383da5ac9fed593bb96423083ce9fbd04d946eb064db7e419fb2",
    "evolve/trace_unperturbed.csv":
        "8877886f5494726c7c127ec3e0c14dff3be97ec6f4d97c0780328f8438bbd5b0",
    "evolve/trace_velocity_eps0.01.csv":
        "1638d4326fc69ee3aed9f2441f0417c07a2e403db4ed37562a1767310eb3f687",
}


def _tiny(tmp_path, extra=""):
    """Small charged config: two shooting points and four short evolutions."""
    return _cfg(tmp_path, """
        [grid]
        r_max = 20.0
        n = 600

        [charge]
        q = 0.01

        [solver]
        omega_list = 0.7, 0.8

        [dynamics]
        T = 2.0
        """ + extra, name="tiny.cfg")


def _family(tmp_path, out_name):
    """Two couplings, each with a three-omega and a two-delta sweep."""
    return _cfg(tmp_path, f"""
        [grid]
        r_max = 20.0
        n = 600

        [charge]
        q_range = 0.001, 0.002, 2

        [solver]
        omega_list = 0.7, 0.75, 0.8
        delta_list = 2e-4, 3e-4

        [output]
        out_dir = {tmp_path / out_name}
        """, name="family.cfg")


def _read_kv(path):
    out = {}
    with open(path) as f:
        for line in f:
            k, v = line.rstrip("\n").split("=", 1)
            out[k] = v
    return out


def test_parse_minimal_defaults(tmp_path):
    cfg = parse_config(_cfg(tmp_path, """
        [potential]
        preset = double_well

        [grid]
        r_max = 40.0
        n = 4000
        """))
    assert cfg.spec.name == "double_well"
    assert cfg.q_values == (0.0,)
    assert cfg.omega_list == tuple(DEFAULT_OMEGA_LIST)
    assert cfg.delta_list == ()
    assert cfg.T == 50.0
    assert cfg.dt is None
    assert cfg.workers == 1
    assert cfg.seed == 0


def test_parse_unknown_key(tmp_path):
    path = _cfg(tmp_path, """
        [solver]
        omega_typo = 0.5
        """)
    with pytest.raises(ConfigError, match="omega_typo"):
        parse_config(path)


@pytest.mark.parametrize("key", ["newton_tol", "charge_floor"])
def test_parse_rejects_solver_constants(tmp_path, key):
    # solver.NEWTON_TOL and solver.CHARGE_FLOOR are constants, not keys
    path = _cfg(tmp_path, f"""
        [solver]
        {key} = 1e-7
        """)
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(path)


def test_parse_error_carries_line(tmp_path):
    path = _cfg(tmp_path, """
        [grid]
        this line has no assignment
        """)
    with pytest.raises(ConfigError, match="line 3"):
        parse_config(path)


def test_parse_q_range_ordering(tmp_path):
    path = _cfg(tmp_path, """
        [charge]
        q_range = 0.5, 0.1
        """)
    with pytest.raises(ConfigError, match="q_range"):
        parse_config(path)


def test_parse_q_range_expansion(tmp_path):
    cfg = parse_config(_cfg(tmp_path, """
        [charge]
        q_range = 0.0, 0.02, 3
        """))
    assert np.allclose(cfg.q_values, (0.0, 0.01, 0.02))


def test_parse_q_range_count_is_whole(tmp_path):
    path = _cfg(tmp_path, """
        [charge]
        q_range = 0.0, 0.02, 2.5
        """)
    with pytest.raises(ConfigError, match="q_range: count must be a whole"):
        parse_config(path)
    # and at most Q_RANGE_MAX
    path = _cfg(tmp_path, "[charge]\nq_range = 0.0, 0.02, 1001\n")
    with pytest.raises(ConfigError, match="q_range: count must be a whole"):
        parse_config(path)
    cfg = parse_config(_cfg(tmp_path, "[charge]\nq_range = 0.0, 0.02, 1000\n"))
    assert len(cfg.q_values) == 1000


def test_parse_q_and_range_conflict(tmp_path):
    path = _cfg(tmp_path, """
        [charge]
        q = 0.01
        q_range = 0.0, 0.02
        """)
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse_config(path)


def test_parse_duplicate_key(tmp_path):
    path = _cfg(tmp_path, """
        [grid]
        n = 600
        n = 700
        """)
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(path)


def test_parse_bad_number(tmp_path):
    path = _cfg(tmp_path, """
        [grid]
        n = plenty
        """)
    with pytest.raises(ConfigError,
                       match="n: cannot parse 'plenty' as a whole number"):
        parse_config(path)


def test_parse_field_validation(tmp_path):
    bad = {
        "[charge]\nq = -0.1": "q",
        "[dynamics]\nT = 0.0": "T",
        "[dynamics]\nmodes = wobble": "modes",
        "[dynamics]\nmodes = amplitude, amplitude": "modes",
        "[dynamics]\nmodes =": r"^modes: must not be empty \(line 2\)$",
        # an unparsable value names what the key expects
        "[grid]\nr_max = far":
            r"^r_max: cannot parse 'far' as a number \(line 2\)$",
        "[solver]\nomega_list = 0.5, abc":
            r"^omega_list: cannot parse '0.5, abc' as a list of numbers"
            r" \(line 2\)$",
        "[charge]\nq_range = 0, x":
            r"^q_range: cannot parse '0, x' as a list of numbers \(line 2\)$",
        "[solver]\nomega_list = 0.8, 0.5": "omega_list",
        # distinct values whose {v:g} file names collide
        "[solver]\nomega_list = 0.8, 0.8000001": "omega_list",
        "[solver]\ndelta_list = 1e-4, 1.0000001e-4": "delta_list",
        "[charge]\nq_range = 0.01, 0.0100001, 3": "q_range",
        "[dynamics]\neps_list = 0.01, 0.0100000001": "eps_list",
        "[output]\nworkers = 0": "workers",
        "[solver]\nflow_max_iter = 0": "flow_max_iter",
        "[solver]\nflow_res_tol = 0": "flow_res_tol",
        "[solver]\nflow_res_tol = -1.0": "flow_res_tol",
        # coefficients the preset does not read
        "[potential]\npreset = double_well\na = 2": "a",
        "[potential]\nb = 0.1": "b",
        "[potential]\npreset = pure_mass\na = 0.5\nb = 0.1": "a",
    }
    for body, field in bad.items():
        with pytest.raises(ConfigError, match=field) as err:
            parse_config(_cfg(tmp_path, body))
        # the message speaks the config's terms, not the parser's names
        assert not re.search(r"\b_[a-z]", str(err.value)), str(err.value)

@pytest.mark.parametrize("section, key, value", [
    ("grid", "r_max", "-1"),
    ("grid", "n", "8"),
    ("charge", "q", "-0.1"),
    ("charge", "q_range", "0.5, 0.1"),
    # a count bound, checked before np.linspace would allocate 73 TiB
    ("charge", "q_range", "0, 0.1, 1e13"),
    ("solver", "omega_list", "0.8, 0.5"),
    ("solver", "delta_list", "-1e-4"),
    ("solver", "tol", "0"),
    ("solver", "flow_max_iter", "0"),
    ("solver", "flow_res_tol", "0"),
    ("dynamics", "T", "0"),
    ("dynamics", "dt", "-0.01"),
    ("dynamics", "eps_list", "-0.01"),
    ("dynamics", "sample_every", "0"),
    ("output", "workers", "0"),
    ("output", "seed", "-1"),
])
def test_every_key_error_names_its_line(tmp_path, section, key, value):
    out = tmp_path / "out"
    path = _cfg(tmp_path, f"""\
        # the bad value sits on line 5
        [output]
        out_dir = {out}
        [{section}]
        {key} = {value}
        """)
    with pytest.raises(ConfigError, match=rf"^{key}: .* \(line 5\)$"):
        parse_config(path)
    assert main(["check-potential", "--config", path]) == 2
    assert not out.exists()


def test_scipy_loads_at_the_first_factorization(tmp_path):
    # a fresh interpreter that finds the same qball package as this one:
    # importing the CLI and the three survey subcommands load no scipy,
    # and a solve after them imports LAPACK and still converges
    code = textwrap.dedent("""\
        import sys
        def scipy_modules():
            return [m for m in sys.modules if m.split(".")[0] == "scipy"]
        from qball.cli import main
        from qball.fields import RadialGrid
        from qball.potential import default_potential
        from qball.solver import solve_profile
        print("import", scipy_modules())
        for sub in ("check-potential", "hylomorphy", "threshold"):
            out = f"{sys.argv[2]}/{sub}"
            assert main([sub, "--config", sys.argv[1], "--out", out]) == 0
        print("survey", scipy_modules())
        p = solve_profile(default_potential(), 0.8, 0.01, RadialGrid(20.0, 600))
        print("solve", "scipy.linalg" in sys.modules, max(p.res1, p.res2) < 1e-6)
        """)
    root = os.path.dirname(os.path.dirname(hylomorphy.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code, _tiny(tmp_path),
                          str(tmp_path)], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0] == "import []"
    assert out[-2:] == ["survey []", "solve True True"]


def test_cli_defaults_are_the_library_defaults(tmp_path):
    cfg = parse_config(_cfg(tmp_path, "# no keys\n"))
    grid = RadialGrid()
    assert (cfg.r_max, cfg.n) == (grid.r_max, grid.n)
    assert cfg.spec == default_potential()
    assert cfg.solve_opts == SolveOptions()
    probe = inspect.signature(stability_probe).parameters
    for key in ("sample_every", "seed", "workers"):
        assert getattr(cfg, key) == probe[key].default, key
    assert cfg.omega_list == DEFAULT_OMEGA_LIST
    assert cfg.modes == PERTURBATION_MODES


def test_default_cfg_names_every_key():
    # the README says demos/default.cfg documents every key
    text = (Path(__file__).parents[1] / "demos" / "default.cfg").read_text()
    for _, key in _SCHEMA:
        assert re.search(rf"^(# )?{key} =", text, re.MULTILINE), key


@pytest.mark.parametrize("section, key, value", [
    ("charge", "q", "nan"),
    ("charge", "q", "inf"),
    ("grid", "r_max", "nan"),
    ("dynamics", "T", "nan"),
    ("solver", "omega_list", "0.5, nan"),
    ("solver", "tol", "nan"),
    ("potential", "m", "nan"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, section, key, value):
    path = _cfg(tmp_path, f"""
        [{section}]
        {key} = {value}

        [output]
        out_dir = {tmp_path / "out"}
        """)
    with pytest.raises(ConfigError, match=f"{key}: must be finite"):
        parse_config(path)
    assert main(["hylomorphy", "--config", path]) == 2
    assert not (tmp_path / "out").exists()


def test_parse_missing_out_parent(tmp_path):
    path = _cfg(tmp_path, f"""
        [output]
        out_dir = {tmp_path}/no/such/parent/run
        """)
    with pytest.raises(ConfigError, match="out_dir"):
        parse_config(path)


def test_out_override_is_checked_like_out_dir(tmp_path):
    path = _small(tmp_path, "out")
    missing = tmp_path / "no" / "such" / "parent" / "run"
    assert main(["check-potential", "--config", path,
                 "--out", str(missing)]) == 2
    assert not missing.parent.exists()


def test_out_override_replaces_a_bad_out_dir(tmp_path):
    path = _cfg(tmp_path, f"""
        [output]
        out_dir = {tmp_path}/no/such/parent/run
        """)
    out = tmp_path / "out"
    assert main(["check-potential", "--config", path, "--out", str(out)]) == 0
    assert (out / "admissibility.txt").exists()


def test_check_potential_artifacts(tmp_path):
    cfg = parse_config(_small(tmp_path, "out"))
    assert run("check-potential", cfg) == 0
    report = _read_kv(tmp_path / "out" / "admissibility.txt")
    assert report["positivity"] == "true"
    assert report["hylomorphy"] == "true"
    assert report["growth"] == "pass"


def test_hylomorphy_artifacts(tmp_path):
    cfg = parse_config(_small(tmp_path, "out"))
    assert run("hylomorphy", cfg) == 0
    lines = (tmp_path / "out" / "hylomorphy.csv").read_text().splitlines()
    assert lines[0] == "q,R,ratio,bound,verdict"
    rows = [line.split(",") for line in lines[1:]]
    assert rows
    for row in rows:
        ratio, bound = float(row[2]), float(row[3])
        assert ratio <= bound + 1e-12
        assert row[4] in ("hylomorphic", "not-hylomorphic")
    report = _read_kv(tmp_path / "out" / "hylomorphy.txt")
    assert float(report["best_ratio_0"]) < 1.0


def test_hylomorphy_builds_the_ratio_rows_once(tmp_path):
    hylomorphy._ratio_coefficients.cache_clear()
    cfg = parse_config(_cfg(tmp_path, f"""
        [charge]
        q_range = 0.0, 0.02, 3

        [output]
        out_dir = {tmp_path / "out"}
        """))
    assert run("hylomorphy", cfg) == 0
    assert hylomorphy._ratio_coefficients.cache_info().misses == 1
    # the rows are still A_R + q^2 B_R of every coupling, in q order
    lines = (tmp_path / "out" / "hylomorphy.csv").read_text().splitlines()
    got = [float(line.split(",")[2]) for line in lines[1:]]
    want = [ratio for q in cfg.q_values
            for _, ratio in hylomorphy.ratio_sweep(cfg.spec, q, cfg.r_max)]
    assert got == want


def test_threshold_artifacts(tmp_path):
    cfg = parse_config(_small(tmp_path, "out"))
    assert run("threshold", cfg) == 0
    report = _read_kv(tmp_path / "out" / "threshold.txt")
    assert float(report["q_bar_est"]) > 0.0
    assert report["hylomorphic"] == "true"


def test_solve_artifacts_and_partial_failure(tmp_path):
    path = _cfg(tmp_path, f"""
        [grid]
        r_max = 20.0
        n = 600

        [solver]
        omega_list = 0.8, 1.5

        [output]
        out_dir = {tmp_path / "out"}
        """)
    cfg = parse_config(path)
    assert run("solve", cfg) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("q,mode,omega_or_delta")
    assert len(lines) == 2
    summary = _read_kv(tmp_path / "out" / "solve.txt")
    assert summary["n_ok"] == "1"
    assert summary["n_failures"] == "1"
    assert "omega=1.5" in summary["failure_0"]
    assert (tmp_path / "out" / "profile_omega0.8_q0.txt").exists()


def test_solve_descent_route(tmp_path):
    path = _cfg(tmp_path, f"""
        [grid]
        r_max = 20.0
        n = 600

        [charge]
        q = 0.001

        [solver]
        omega_list = 0.8
        delta_list = 2e-4

        [output]
        out_dir = {tmp_path / "out"}
        """)
    assert run("solve", parse_config(path)) == 0
    with open(tmp_path / "out" / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert {row["mode"] for row in rows} == {"omega", "delta"}
    assert (tmp_path / "out" / "profile_delta0.0002_q0.001.txt").exists()
    # every point ends in the coupled Newton; only the descent point flows
    for row in rows:
        assert int(row["newton_iters"]) >= 1
        if row["mode"] == "delta":
            assert int(row["flow_iters"]) >= 1
        else:
            assert row["flow_iters"] == "none"


def test_solve_rows_are_the_library_sweeps(tmp_path):
    # solve runs family_sweep once per coupling and route, rows in job order
    cfg = parse_config(_family(tmp_path, "out"))
    assert run("solve", cfg) == 0
    out = tmp_path / "out"
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 10
    rows = iter(rows)
    ref = tmp_path / "ref.txt"
    for q in cfg.q_values:
        for kind, values in (("delta", cfg.delta_list),
                             ("omega", cfg.omega_list)):
            sweep = family_sweep(cfg.spec, q, cfg.grid(), opts=cfg.solve_opts,
                                 **{f"{kind}_list": values})
            assert not sweep.failures
            for value, prof in zip(values, sweep.profiles):
                row = next(rows)
                assert (float(row["q"]), row["mode"],
                        float(row["omega_or_delta"])) == (q, kind, value)
                for col in ("E", "C", "Lambda", "res1", "res2", "u0"):
                    assert float(row[col]) == getattr(prof, col), col
                assert row["newton_iters"] == str(prof.newton_iters)
                assert row["flow_iters"] == str(prof.flow_iters).lower()
                delta = value if kind == "delta" else None
                prof.state.save(ref, prof.phi, m=cfg.spec.m,
                                omega=prof.omega, delta=delta)
                name = f"profile_{kind}{value:g}_q{q:g}.txt"
                assert (out / name).read_bytes() == ref.read_bytes(), name


def test_evolve_artifacts(tmp_path):
    cfg = parse_config(_small(tmp_path, "out"))
    assert run("evolve", cfg) == 0
    trace = (tmp_path / "out" / "trace_unperturbed.csv").read_text()
    assert trace.splitlines()[0] == "t,E,C,V,d,max_psi,sponge_flux"
    assert len(trace.splitlines()) > 2
    report = _read_kv(tmp_path / "out" / "evolve.txt")
    assert report["amplitude_eps0.01_classification"] == "stable-like"
    assert float(report["unperturbed_max_distance"]) >= 0.0


def test_evolve_report_is_the_probe_report(tmp_path):
    cfg = parse_config(_small(tmp_path, "out"))
    assert run("evolve", cfg) == 0
    written = _read_kv(tmp_path / "out" / "evolve.txt")
    prof = solve_profile(cfg.spec, cfg.omega_list[0], cfg.q_values[0],
                         cfg.grid(), cfg.solve_opts)
    report = stability_probe(prof, cfg.spec, (0.0,) + cfg.eps_list, cfg.T,
                             cfg.dt, cfg.sample_every, cfg.modes, cfg.seed)
    assert written["n_runs"] == str(len(report.runs))
    assert float(written["profile_norm"]) == report.profile_norm
    unperturbed = report.runs[0]
    assert unperturbed.mode is None
    # the step evolve resolved, and the number of steps it took
    assert cfg.dt is None
    assert float(written["dt"]) == unperturbed.trace.dt \
        == DEFAULT_DT_FACTOR * cfg.grid().dr
    assert written["steps"] == str(round(cfg.T / unperturbed.trace.dt))
    assert float(written["unperturbed_rel_distance"]) \
        == unperturbed.max_distance / report.profile_norm
    assert float(written["lift_offset"]) == report.lift_offset
    for r in report.runs:
        assert float(written[f"{r.name}_max_distance"]) == r.max_distance
        assert float(written[f"{r.name}_ratio"]) == r.max_ratio
        assert written[f"{r.name}_classification"] == r.classification


@pytest.mark.parametrize("workers", [1, 2])
def test_evolve_blow_up_failure_record(tmp_path, workers):
    # a thousandfold amplitude kick leaves the finite range within T = 1
    cfg = parse_config(_small(tmp_path, "out", f"workers = {workers}",
                              eps_list="1000"))
    assert run("evolve", cfg) == 1
    assert os.listdir(tmp_path / "out") == ["failure.txt"]
    record = _read_kv(tmp_path / "out" / "failure.txt")
    assert record["subcommand"] == "evolve"
    assert record["module"] == "dynamics"
    assert record["operation"] == "stability_probe"
    assert record["error"] == "BlowUpError"
    assert record["message"] == "fields became non-finite"


def test_evolve_profile_failure_record(tmp_path):
    # omega above the mass fails the profile solve before any evolution
    cfg = parse_config(_small(tmp_path, "out", omega_list="1.5"))
    assert run("evolve", cfg) == 1
    assert os.listdir(tmp_path / "out") == ["failure.txt"]
    record = _read_kv(tmp_path / "out" / "failure.txt")
    assert record["module"] == "solver"
    assert record["operation"] == "solve_profile"
    assert record["error"] == "ValueError"


def test_all_pipeline(tmp_path):
    cfg = parse_config(_small(tmp_path, "out"))
    assert run("all", cfg) == 0
    expected = ["admissibility.txt", "hylomorphy.csv", "hylomorphy.txt",
                "threshold.txt", "sweep.csv", "solve.txt", "evolve.txt",
                "trace_unperturbed.csv"]
    for name in expected:
        assert (tmp_path / "out" / name).exists()


def test_existing_out_dir_refused(tmp_path):
    cfg = parse_config(_small(tmp_path, "out"))
    assert run("check-potential", cfg) == 0
    before = sorted(os.listdir(tmp_path / "out"))
    assert run("check-potential", cfg) == 2
    assert sorted(os.listdir(tmp_path / "out")) == before


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_interrupted_run_leaves_no_stage(tmp_path, monkeypatch, interrupt):
    def body(cfg, stage):
        open(os.path.join(stage, "partial.txt"), "w").close()
        raise interrupt()

    monkeypatch.setitem(cli._DISPATCH, "check-potential",
                        [("potential", "check_admissibility", body)])
    cfg = parse_config(_small(tmp_path, "out"))
    with pytest.raises(interrupt):
        run("check-potential", cfg)
    assert not (tmp_path / "out").exists()
    assert not [name for name in os.listdir(tmp_path)
                if name.startswith(".qball-stage-")]


def test_failure_record(tmp_path):
    path = _cfg(tmp_path, f"""
        [potential]
        preset = pure_mass

        [grid]
        r_max = 20.0
        n = 600

        [output]
        out_dir = {tmp_path / "out"}
        """)
    cfg = parse_config(path)
    assert run("threshold", cfg) == 1
    record = _read_kv(tmp_path / "out" / "failure.txt")
    assert record["module"] == "hylomorphy"
    assert record["operation"] == "q_threshold"
    assert record["error"] == "AdmissibilityError"
    assert os.listdir(tmp_path / "out") == ["failure.txt"]


def test_determinism_across_worker_counts(tmp_path):
    # the first solve writes to the config's out_dir, every other call to --out
    base = _tiny(tmp_path, f"""
        [output]
        out_dir = {tmp_path / "solve1"}
        """)
    # and on more than one job per route: two couplings, two sweeps each
    family = _family(tmp_path, "family1")
    for sub, config, name in (("solve", base, "solve"),
                              ("evolve", base, "evolve"),
                              ("solve", family, "family")):
        one, three = tmp_path / f"{name}1", tmp_path / f"{name}3"
        own_dir = [] if sub == "solve" else ["--out", str(one)]
        assert main([sub, "--config", config] + own_dir) == 0
        assert main([sub, "--config", config, "--out", str(three),
                     "--workers", "3"]) == 0
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(three))
        for name in names:
            assert (one / name).read_bytes() == (three / name).read_bytes(), name


def test_artifact_digests_frozen(tmp_path):
    base = _tiny(tmp_path)
    got = {}
    for sub in ("check-potential", "hylomorphy", "threshold", "solve",
                "evolve"):
        out = tmp_path / sub
        assert main([sub, "--config", base, "--out", str(out)]) == 0
        for name in sorted(os.listdir(out)):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            got[f"{sub}/{name}"] = digest
    assert got == TINY_DIGESTS


# sha256 of the solve artifacts of the _tiny grid and coupling with one
# omega point and one descent (delta) point, taken like TINY_DIGESTS; no
# TINY_DIGESTS entry covers the descent route
DELTA_DIGESTS = {
    "profile_delta0.0002_q0.01.txt":
        "37de50fcefe815951a8497a0bac0d20d3732dce2b109e35edc87116f722a8030",
    "profile_omega0.8_q0.01.txt":
        "2bdb166c1cb538cb0c577240b552b716a95be75d0baf5a013167989e378cbd0d",
    "solve.txt":
        "81f4bcf656e778ec8c247455d923a3173aa8cef89061cae174e37278dc7084ae",
    "sweep.csv":
        "4258769654deaacde5a92e931651bacdf571d9ee4cb69e046defbc7e54abaa56",
}


def test_descent_artifact_digests_frozen(tmp_path):
    path = _cfg(tmp_path, """
        [grid]
        r_max = 20.0
        n = 600

        [charge]
        q = 0.01

        [solver]
        omega_list = 0.8
        delta_list = 2e-4
        """)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
    # one visible-tail warning per point: the grid is deliberately small
    assert [w.category for w in caught] == [RuntimeWarning] * 2
    assert _read_kv(out / "solve.txt")["n_ok"] == "2"
    with open(out / "sweep.csv") as f:
        flow_iters = [row["flow_iters"] for row in csv.DictReader(f)]
    assert flow_iters == ["74", "none"]
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in sorted(os.listdir(out))}
    assert got == DELTA_DIGESTS


def test_solve_descent_residual_failure(tmp_path):
    path = _cfg(tmp_path, f"""
        [grid]
        r_max = 20.0
        n = 600

        [charge]
        q = 0.001

        [solver]
        omega_list = 0.8
        delta_list = 2e-4
        flow_max_iter = 50

        [output]
        out_dir = {tmp_path / "out"}
        """)
    assert run("solve", parse_config(path)) == 0
    summary = _read_kv(tmp_path / "out" / "solve.txt")
    assert summary["n_ok"] == "1"
    assert summary["n_failures"] == "1"
    assert "delta=0.0002" in summary["failure_0"]
    assert "above flow_res_tol=5e-05" in summary["failure_0"]
    res1 = float(summary["failure_0"].split("res1=")[1].split()[0])
    assert res1 > 5e-5
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["omega"]
    assert not (tmp_path / "out" / "profile_delta0.0002_q0.001.txt").exists()


def test_dt_above_the_cfl_bound_is_a_config_error(tmp_path):
    # dr = 20/399, so the bound 0.5 dr is about 0.025
    body = """
        [grid]
        r_max = 20.0
        n = 400

        [dynamics]
        dt = {}

        [output]
        out_dir = {}
        """
    path = _cfg(tmp_path, body.format(0.04, tmp_path / "out"))
    with pytest.raises(ConfigError, match="dt: exceeds the CFL bound"):
        parse_config(path)
    assert main(["evolve", "--config", path]) == 2
    assert not (tmp_path / "out").exists()
    ok = _cfg(tmp_path, body.format(0.025, tmp_path / "out"), name="ok.cfg")
    assert parse_config(ok).dt == 0.025


def test_main_rejects_bad_config(tmp_path):
    path = _cfg(tmp_path, """
        [solver]
        omega_typo = 0.5
        """)
    assert main(["solve", "--config", path]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_usage_errors_exit_2_before_any_output(tmp_path):
    path, out = _small(tmp_path, "out"), str(tmp_path / "usage")
    for argv in (["nosuch", "--config", path, "--out", out],
                 ["threshold", "--out", out]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert not (tmp_path / "usage").exists()
    assert not (tmp_path / "out").exists()


def test_options_may_precede_the_subcommand(tmp_path):
    path = _small(tmp_path, "unused")
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--config", path, "--out", str(first), "threshold"]) == 0
    assert main(["threshold", "--config", path, "--out", str(second)]) == 0
    assert ((first / "threshold.txt").read_bytes()
            == (second / "threshold.txt").read_bytes())


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    # in the README's order
    assert ("{check-potential,hylomorphy,threshold,solve,evolve,all}"
            in capsys.readouterr().out)
