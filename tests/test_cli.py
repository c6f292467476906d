"""Config parsing, subcommand artifacts, determinism, failure records."""

import hashlib
import os
import textwrap

import numpy as np
import pytest

from qball.cli import ConfigError, main, parse_config, run
from qball.dynamics import stability_probe
from qball.solver import DEFAULT_OMEGA_LIST, solve_profile

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


# sha256 of every check-potential, hylomorphy, solve and evolve artifact of
# the _tiny config, taken with numpy 2.4.6 and scipy 1.17.1 on x86-64 (the
# versions the CI workflow pins).  Results are byte-identical for a given
# config, seed and build, so a changed digest is a changed result and must
# be a deliberate, recorded decision.
TINY_DIGESTS = {
    "check-potential/admissibility.txt":
        "96d5fbb122f697e6c83440d61db8b59e6ab039b3cd1d948c6453d51e038c1f9c",
    "hylomorphy/hylomorphy.csv":
        "a385fbf85450aafff7adcc7c85770d5af48deccd3532b2c8650411b9bb8d60de",
    "hylomorphy/hylomorphy.txt":
        "1a41d66df31e59bc93f10bb30553c8b3760b6e35d6aa81c7ebc9a202405d5032",
    "solve/profile_omega0.7_q0.01.txt":
        "5eb502dab7fd0de0c42c30ce34a6395bdf6eb7cd26fa7a1c9d2b12678e483a84",
    "solve/profile_omega0.8_q0.01.txt":
        "87a613c9c0de1359a10b6956e78c578ef6013268d4c9ae0285e13652cb65c452",
    "solve/solve.txt":
        "81f4bcf656e778ec8c247455d923a3173aa8cef89061cae174e37278dc7084ae",
    "solve/sweep.csv":
        "4bf4c3d1fb380ce58f6b4d6087ccf0c10ed9c48a0179985fb28a4dd5210bf327",
    "evolve/evolve.txt":
        "323de78559a58c3851b6b9621cbd635b87950d51e2eb6514fc7b76deaf6d5860",
    "evolve/trace_amplitude_eps0.01.csv":
        "357a31f75081b47bfad7cf77eb7c9ccbd86468fe9bece4d87dd3c229db969967",
    "evolve/trace_noise_eps0.01.csv":
        "015d7afbb06f0e93f0654b78a3e0a692c543d9e5ff7755eece0c846dea06c414",
    "evolve/trace_unperturbed.csv":
        "7c7e1a8b90802c775538dd189cc4cfaea1f31aefc6113e00547bc57d8ad6389e",
    "evolve/trace_velocity_eps0.01.csv":
        "c6a461b44d1ac6bb29b535fbd2b5d925b845e955ec1b0c028f4a4e75f69c8e09",
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
    with pytest.raises(ConfigError, match="n: cannot parse"):
        parse_config(path)


def test_parse_field_validation(tmp_path):
    bad = {
        "[charge]\nq = -0.1": "q",
        "[dynamics]\nT = 0.0": "T",
        "[dynamics]\nmodes = wobble": "modes",
        "[dynamics]\nmodes = amplitude, amplitude": "modes",
        "[solver]\nomega_list = 0.8, 0.5": "omega_list",
        # distinct values whose {v:g} file names collide
        "[solver]\nomega_list = 0.8, 0.8000001": "omega_list",
        "[solver]\ndelta_list = 1e-4, 1.0000001e-4": "delta_list",
        "[charge]\nq_range = 0.01, 0.0100001, 3": "q_range",
        "[dynamics]\neps_list = 0.01, 0.0100000001": "eps_list",
        "[output]\nworkers = 0": "workers",
        # coefficients the preset does not read
        "[potential]\npreset = double_well\na = 2": "a",
        "[potential]\nb = 0.1": "b",
        "[potential]\npreset = pure_mass\na = 0.5\nb = 0.1": "a",
    }
    for body, field in bad.items():
        with pytest.raises(ConfigError, match=field):
            parse_config(_cfg(tmp_path, body))


def test_parse_missing_out_parent(tmp_path):
    path = _cfg(tmp_path, f"""
        [output]
        out_dir = {tmp_path}/no/such/parent/run
        """)
    with pytest.raises(ConfigError, match="out_dir"):
        parse_config(path)


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
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    modes = {line.split(",")[1] for line in lines[1:]}
    assert modes == {"omega", "delta"}
    assert (tmp_path / "out" / "profile_delta0.0002_q0.001.txt").exists()


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
    for sub in ("solve", "evolve"):
        one, three = tmp_path / f"{sub}1", tmp_path / f"{sub}3"
        own_dir = [] if sub == "solve" else ["--out", str(one)]
        assert main([sub, "--config", base] + own_dir) == 0
        assert main([sub, "--config", base, "--out", str(three),
                     "--workers", "3"]) == 0
        names = sorted(os.listdir(one))
        assert names == sorted(os.listdir(three))
        for name in names:
            assert (one / name).read_bytes() == (three / name).read_bytes(), name


def test_artifact_digests_frozen(tmp_path):
    base = _tiny(tmp_path)
    got = {}
    for sub in ("check-potential", "hylomorphy", "solve", "evolve"):
        out = tmp_path / sub
        assert main([sub, "--config", base, "--out", str(out)]) == 0
        for name in sorted(os.listdir(out)):
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            got[f"{sub}/{name}"] = digest
    assert got == TINY_DIGESTS


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
