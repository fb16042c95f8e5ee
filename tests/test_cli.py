import json
import os

import numpy as np
import pytest

from xfft.cli import (
    EXIT_BAD_CONFIG,
    EXIT_OK,
    ConfigError,
    RunConfig,
    dump_field,
    load_config,
    main,
    read_field,
)

HASHIN_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "hashin.json")
LAMINATE_CFG = os.path.join(os.path.dirname(__file__), "..", "configs", "laminate.json")


def minimal_config(**overrides):
    cfg = {
        "grid": {"n": [4, 4, 4], "lengths": [16.0, 16.0, 16.0]},
        "phases": [{"name": "m", "young": 1.5, "poisson": 0.25}],
        "geometry": [],
        "loading": [1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
        "solver": {"scheme": "lcg", "tol": 1e-8, "maxit": 50},
    }
    cfg.update(overrides)
    return cfg


def test_bundled_configs_parse():
    cfg = load_config(HASHIN_CFG)
    assert cfg.n == (16, 16, 16)
    assert cfg.phase_names == ["matrix", "coating", "inclusion"]
    assert cfg.assembly.n_interfaces == 2
    load_config(LAMINATE_CFG)


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig(minimal_config(extra=1))
    with pytest.raises(ConfigError, match=r"grid"):
        RunConfig(minimal_config(grid={"n": [4, 4, 4], "lengths": [1, 1, 1], "x": 0}))


def test_undefined_phase_rejected():
    cfg = minimal_config(
        geometry=[
            {
                "type": "sphere",
                "center": [8, 8, 8],
                "radius": 2.0,
                "inside": "nope",
                "outside": "m",
            }
        ]
    )
    with pytest.raises(ConfigError, match="phase 'nope' not defined"):
        RunConfig(cfg)


def test_invalid_values_rejected():
    with pytest.raises(ConfigError, match="poisson|Poisson"):
        RunConfig(
            minimal_config(phases=[{"name": "m", "young": 1.0, "poisson": 0.7}])
        )
    with pytest.raises(ConfigError, match="loading"):
        RunConfig(minimal_config(loading=[1, 0, 0]))
    with pytest.raises(ConfigError, match="scheme"):
        RunConfig(minimal_config(solver={"scheme": "gauss"}))


@pytest.mark.parametrize(
    "overrides, argv, env, key",
    [
        ({"outputs": {"fields": "false"}}, ["solve"], None, "outputs.fields"),
        ({"outputs": {"log": 5}}, ["solve"], None, "outputs.log"),
        ({"outputs": {"study_ns": 5}}, ["solve"], None, "outputs.study_ns"),
        ({"outputs": {"log": "{tmp}/outside.csv"}}, ["solve"], None, "outputs.log"),
        ({"outputs": {"log": "../outside.csv"}}, ["solve"], None, "outputs.log"),
        ({"solver": {"maxit": 3.7}}, ["solve"], None, "solver.maxit"),
        ({"solver": {"tol": True}}, ["solve"], None, "solver.tol"),
        ({}, ["solve", "--scheme", "gauss"], None, "--scheme"),
        ({}, ["solve", "--tol", "-1"], None, "--tol"),
        ({}, ["solve"], "abc", "XFFT_THREADS"),
        ({}, ["solve"], "0", "XFFT_THREADS"),
        ({}, ["--threads", "0", "solve"], None, "--threads"),
        ({"grid": {"n": [1, 4, 4], "lengths": [16, 16, 16]}}, ["solve"], None, "grid"),
        ({"grid": {"n": [4, 4, 4.5], "lengths": [16, 16, 16]}}, ["solve"], None, "grid"),
        ({"grid": {"n": [True, 4, 4], "lengths": [16, 16, 16]}}, ["solve"], None, "grid"),
        ({"grid": {"n": [4, 4, 4], "lengths": [0, 16, 16]}}, ["solve"], None, "grid"),
        ({}, ["sweep"], None, "outputs.study_ns"),
        ({"solver": {"scheme": ["lcg"]}}, ["solve"], None, "solver"),
        ({"outputs": {"study_ns": [4, 4, 8]}}, ["sweep"], None, "outputs.study_ns"),
    ],
    ids=[
        "fields-string", "log-int", "study_ns-int", "log-absolute", "log-parent-dir",
        "maxit-float", "tol-bool", "flag-scheme-unknown", "flag-tol-negative",
        "env-threads-abc", "env-threads-0", "flag-threads-0",
        "grid-n-1", "grid-n-float", "grid-n-bool", "grid-lengths-0", "sweep-study_ns-missing",
        "scheme-list", "study_ns-duplicate",
    ],
)
def test_cli_rejects_invalid_outputs_solver_and_threads(
    tmp_path, monkeypatch, capsys, overrides, argv, env, key
):
    # rejected with the key named, before anything is solved or written
    if env is None:
        monkeypatch.delenv("XFFT_THREADS", raising=False)
    else:
        monkeypatch.setenv("XFFT_THREADS", env)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config(**overrides)).replace("{tmp}", str(tmp_path)))
    out = tmp_path / "out"
    assert main(argv + ["--config", str(p), "--out", str(out)]) == EXIT_BAD_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "outside.csv").exists()
    assert not (out / "displacement.f64").exists()


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("geometry", 0, "center"), [float("nan"), 8, 8], "geometry[0].center"),
        (("solver", "tol"), float("inf"), "solver.tol"),
        (("loading",), [float("nan"), 1, 1, 0, 0, 0], "loading"),
        (("grid", "lengths"), [float("inf"), 16, 16], "grid.lengths"),
        (("phases", 0, "young"), float("nan"), "phases[0].young"),
        (("phases", 0, "young"), float("inf"), "phases[0].young"),
        (("phases", 0, "young"), "1.5", "phases[0].young"),
        (("phases", 0, "young"), True, "phases[0].young"),
        (("geometry", 0, "radius"), "3.0", "geometry[0].radius"),
        (("loading",), [True, 1, 1, 0, 0, 0], "loading"),
    ],
    ids=[
        "center-nan", "tol-inf", "loading-nan", "lengths-inf", "young-nan", "young-inf",
        "young-string", "young-bool", "radius-string", "loading-bool",
    ],
)
def test_cli_rejects_numbers_that_are_not_finite_json_numbers(tmp_path, capsys, path, value, key):
    # json.load reads NaN and Infinity; neither they, nor strings or
    # booleans, may stand for a number of the config
    sphere = {"type": "sphere", "center": [8, 8, 8], "radius": 3.0, "inside": "m", "outside": "m"}
    cfg = minimal_config(geometry=[sphere])
    *parents, last = path
    target = cfg
    for k in parents:
        target = target[k]
    target[last] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["solve", "--config", str(p), "--out", str(out)]) == EXIT_BAD_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_geometry_outside_model_rejected(tmp_path):
    sphere = {"type": "sphere", "center": [8, 8, 8], "radius": -2.0, "inside": "m", "outside": "m"}
    with pytest.raises(ConfigError, match=r"geometry\[0\]: sphere radius"):
        RunConfig(minimal_config(geometry=[sphere]))
    union = {
        "type": "sphere_union",
        "spheres": [{"center": [4, 8, 8], "radius": 2.0}, {"center": [9, 8, 8], "radius": 0}],
        "inside": "m",
        "outside": "m",
    }
    with pytest.raises(ConfigError, match=r"geometry\[0\]\.spheres\[1\]: sphere radius"):
        RunConfig(minimal_config(geometry=[union]))
    plane = {"type": "plane", "point": [0, 0, 0], "normal": [1, 1, 0], "inside": "m", "outside": "m"}
    with pytest.raises(ConfigError, match=r"geometry\[0\]: plane normal"):
        RunConfig(minimal_config(geometry=[plane]))
    p = tmp_path / "oblique.json"
    p.write_text(json.dumps(minimal_config(geometry=[plane])))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_BAD_CONFIG


def test_malformed_json_line_anchored(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n "grid": [,]\n}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(p))


def test_cli_rejects_config_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe" + json.dumps(minimal_config()).encode("utf-16-le"))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
    assert "config error" in capsys.readouterr().err


def test_cli_solve_homogeneous(tmp_path, capsys):
    p = tmp_path / "homog.json"
    p.write_text(json.dumps(minimal_config()))
    code = main(["solve", "--config", str(p), "--out", str(tmp_path)])
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["converged"]
    assert summary["iterations"] <= 1
    # <sigma> = C eps for the homogeneous cell: K=1 -> sigma_ii = 3K = 3
    assert np.allclose(summary["average_stress"][:3], 3.0, rtol=1e-10)
    csv = (tmp_path / "convergence.csv").read_text().splitlines()
    assert csv[0] == "iteration,res,res_rel,wall_time"
    assert len(csv) >= 2


def test_cli_solve_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
    p = tmp_path / "shortrun.json"
    cfg = minimal_config()
    cfg["geometry"] = [
        {
            "type": "sphere",
            "center": [8, 8, 8],
            "radius": 5.0,
            "inside": "i",
            "outside": "m",
        }
    ]
    cfg["phases"].append({"name": "i", "young": 15.0, "poisson": 0.25})
    cfg["solver"] = {"scheme": "lcg", "tol": 1e-13, "maxit": 2}
    p.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == 3


def test_cli_determinism(tmp_path):
    cfg = minimal_config()
    cfg["geometry"] = [
        {
            "type": "sphere",
            "center": [8, 8, 8],
            "radius": 5.0,
            "inside": "i",
            "outside": "m",
        }
    ]
    cfg["phases"].append({"name": "i", "young": 15.0, "poisson": 0.25})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["solve", "--config", str(p), "--out", str(out)]) == EXIT_OK
        rows = (out / "convergence.csv").read_text().splitlines()
        outs.append([r.rsplit(",", 1)[0] for r in rows])  # strip wall time
    assert outs[0] == outs[1]


def test_field_dump_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5, 3))
    base = str(tmp_path / "field")
    dump_field(base, arr, {"field": "test"})
    back = read_field(base)
    assert np.array_equal(back, arr)
    desc = json.loads((tmp_path / "field.json").read_text())
    assert desc["dtype"] == "<f8"
    assert desc["shape"] == [3, 4, 5, 3]
    # raw bytes are x-fastest: stride check on a marker value
    flat = np.fromfile(base + ".f64", dtype="<f8")
    assert flat[3] == arr[1, 0, 0, 0]  # second x-index comes after 3 components


def test_cli_solve_with_field_dump(tmp_path):
    cfg = minimal_config(outputs={"fields": True})
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "displacement.f64").exists()
    assert (tmp_path / "displacement.vtk").exists()
    back = read_field(str(tmp_path / "displacement"))
    assert back.shape == (4, 4, 4, 3)
    assert np.allclose(back, 0.0)  # homogeneous cell: zero fluctuation


def test_cli_sweep_requires_ns_and_writes_study(tmp_path):
    cfg = minimal_config()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == EXIT_BAD_CONFIG
    cfg["outputs"] = {"study_ns": [2, 4]}
    p.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    rows = (tmp_path / "study.csv").read_text().splitlines()
    assert rows[0].startswith("n,h,bulk_response")
    assert len(rows) == 3  # header + 2 resolutions, no slope for < 3


def test_cli_sweep_names_coinciding_responses(tmp_path, capsys):
    # a one-phase cell answers every resolution alike up to round-off:
    # three resolutions, but not three distinct responses to fit a slope to
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config(outputs={"study_ns": [4, 6, 8]})))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "distinct responses, no slope fitted" in out
    assert "fewer than 3 resolutions" not in out
    assert not (tmp_path / "study.csv").read_text().count("slope")


@pytest.mark.parametrize("ns", [[4, 6, 10], [3, 5, 7]])
def test_cli_sweep_fits_no_slope_to_round_off(tmp_path, capsys, ns):
    # the one-phase cell's responses differ from the finest by far less than
    # the solver tolerance: round-off, not discretization error
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config(outputs={"study_ns": ns})))
    assert main(["sweep", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    assert "distinct responses, no slope fitted" in capsys.readouterr().out
    assert not (tmp_path / "study.csv").read_text().count("slope")


@pytest.mark.parametrize("tol", ["0", "inf"])
def test_cli_validate_rejects_zero_and_infinite_tol(capsys, tol):
    assert main(["validate", "homogeneous", "--tol", tol]) == EXIT_BAD_CONFIG
    err = capsys.readouterr()
    assert "tol must be positive and finite" in err.err and "PASS" not in err.out


def test_cli_validate_rejects_unknown_scheme(capsys):
    assert main(["validate", "homogeneous", "--scheme", "gauss"]) == EXIT_BAD_CONFIG
    err = capsys.readouterr()
    assert "config error" in err.err and "unknown scheme" in err.err
    assert "PASS" not in err.out


def test_cli_validate_homogeneous_and_laminate():
    assert main(["validate", "homogeneous"]) == EXIT_OK
    assert main(["validate", "laminate"]) == EXIT_OK


def test_cli_symbol_dump(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config()))
    assert main(["symbol-dump", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    desc = json.loads((tmp_path / "green_symbol.json").read_text())
    raw = np.fromfile(tmp_path / "green_symbol.c16", dtype="<c16")
    assert raw.size == np.prod(desc["shape"])


def test_cli_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("XFFT_THREADS", "2")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config()))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    import xfft.greenop as go

    assert go._FFT_WORKERS == 2
    # flag wins over the environment
    assert main(["--threads", "1", "solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    assert go._FFT_WORKERS == 1


def test_cli_summary_reports_cache_bytes_and_verified_residual(tmp_path):
    p = tmp_path / "sphere.json"
    cfg = minimal_config(
        phases=[
            {"name": "m", "young": 1.5, "poisson": 0.25},
            {"name": "s", "young": 3.0, "poisson": 0.3},
        ],
        geometry=[
            {"type": "sphere", "center": [8, 8, 8], "radius": 5.0, "inside": "s", "outside": "m"}
        ],
    )
    p.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    system = RunConfig(cfg).build()
    assert summary["cache_bytes"] == system.caches.nbytes
    k = system.caches.special_k
    assert summary["cache_bytes"] > system.caches.voxel_k.nbytes + k.data.nbytes
    # the residual recomputed from scratch satisfies the stopping criterion
    tol = cfg["solver"]["tol"]
    assert 0 < summary["residual_verified"] <= tol * np.linalg.norm(summary["average_stress"]) * 1.01


def test_cli_summary_reports_build_and_solve_time_and_memory(tmp_path):
    p = tmp_path / "sphere.json"
    cfg = minimal_config(
        phases=[
            {"name": "m", "young": 1.5, "poisson": 0.25},
            {"name": "s", "young": 3.0, "poisson": 0.3},
        ],
        geometry=[
            {"type": "sphere", "center": [8, 8, 8], "radius": 5.0, "inside": "s", "outside": "m"}
        ],
    )
    p.write_text(json.dumps(cfg))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "summary.json").read_text())
    fields = ("build_time", "solve_time", "maxrss_build_mb", "maxrss_solve_mb", "wall_time")
    for name in fields:
        assert summary[name] > 0, name
    # the peak is read after each phase, and a peak never falls
    assert summary["maxrss_solve_mb"] >= summary["maxrss_build_mb"]
    assert summary["build_time"] + summary["solve_time"] <= summary["wall_time"] * (1 + 1e-9)


def test_too_many_phases_rejected(tmp_path):
    phases = [{"name": f"p{i}", "young": 1.0, "poisson": 0.3} for i in range(128)]
    with pytest.raises(ConfigError, match="phases: at most 127 phases"):
        RunConfig(minimal_config(phases=phases))
    p = tmp_path / "many.json"
    p.write_text(json.dumps(minimal_config(phases=phases)))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_BAD_CONFIG


def sphere_config(**solver):
    return minimal_config(
        phases=[
            {"name": "m", "young": 1.5, "poisson": 0.25},
            {"name": "s", "young": 3.0, "poisson": 0.3},
        ],
        geometry=[
            {"type": "sphere", "center": [8, 8, 8], "radius": 5.0, "inside": "s", "outside": "m"}
        ],
        solver={"scheme": "lcg", "tol": 1e-8, "maxit": 50, **solver},
    )


def test_cli_summary_flags_unverified_solves(tmp_path):
    flags = []
    for maxit, code in ((50, EXIT_OK), (1, 3)):
        p = tmp_path / f"maxit{maxit}.json"
        p.write_text(json.dumps(sphere_config(maxit=maxit)))
        out = tmp_path / f"out{maxit}"
        assert main(["solve", "--config", str(p), "--out", str(out)]) == code
        flags.append(json.loads((out / "summary.json").read_text())["residual_verified_within_tol"])
    assert flags == [True, False]


def test_cli_summary_reports_thread_settings(tmp_path):
    from xfft import greenop

    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config()))
    before = greenop.fft_workers()
    try:
        for threads in (2, 1):
            argv = ["--threads", str(threads), "solve", "--config", str(p), "--out", str(tmp_path)]
            assert main(argv) == EXIT_OK
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["fft_workers"] == threads
            assert "openblas_threads" in summary
            blas = summary["openblas_threads"]
            assert blas is None or (isinstance(blas, int) and blas >= 1)
    finally:
        greenop.set_fft_workers(before)


def test_sphere_reaching_half_the_cell_rejected(tmp_path):
    union = {
        "type": "sphere_union",
        "spheres": [{"center": [4, 8, 8], "radius": 2.0}, {"center": [9, 8, 8], "radius": 8.0}],
        "inside": "m",
        "outside": "m",
    }
    with pytest.raises(ConfigError, match=r"geometry: region 0: sphere radius 8 must be below"):
        RunConfig(minimal_config(geometry=[union]))
    p = tmp_path / "large.json"
    p.write_text(json.dumps(minimal_config(geometry=[union])))
    assert main(["solve", "--config", str(p), "--out", str(tmp_path)]) == EXIT_BAD_CONFIG


def test_cli_threads_set_openblas_threads(tmp_path):
    from xfft import greenop
    from xfft.cli import openblas_threads, set_openblas_threads

    before = (greenop.fft_workers(), openblas_threads())
    if before[1] is None:
        pytest.skip("numpy's bundled OpenBLAS is not reachable")
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(minimal_config()))
    try:
        for threads in (2, 1):
            argv = ["--threads", str(threads), "solve", "--config", str(p), "--out", str(tmp_path)]
            assert main(argv) == EXIT_OK
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["fft_workers"] == summary["openblas_threads"] == threads
    finally:
        greenop.set_fft_workers(before[0])
        set_openblas_threads(before[1])
