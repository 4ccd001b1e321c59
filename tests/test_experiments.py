"""Experiment registry, config plumbing, manifests, CLI exit codes."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from semiphase import ConfigurationError, SemiphaseWarning
from semiphase.cli import main
from semiphase.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    defaults_for,
    resolve_experiment,
    run_experiment,
)
from semiphase.classical import transport_particles
from semiphase import experiments
from semiphase.experiments import (_ROWS, _Emitter, _evolve_at, _mirror_jobs,
                                   _mixture_datum, _potential, _split_grid_size,
                                   _split_profiles, _transport)
from semiphase.grids import build_position_grid
from semiphase.metrics import NODES
from semiphase.states import _window_points, concentration_lattice


# -------------------------------------------------------------- registry


def test_registry_contents():
    assert set(EXPERIMENTS) == {
        "HarmonicExact", "BranchAtlas", "ConcentrationSplit", "L2MollifiedRate",
        "WeakConvergence", "RandomFamily", "ConjectureProbe",
    }
    for name in EXPERIMENTS:
        assert resolve_experiment(name) == name


def test_registry_aliases():
    assert resolve_experiment("harmonicexact") == "HarmonicExact"
    assert resolve_experiment("harmonic-exact") == "HarmonicExact"
    assert resolve_experiment("conjecture-probe") == "ConjectureProbe"
    with pytest.raises(ConfigurationError):
        resolve_experiment("NoSuchThing")


def test_defaults_round_trip():
    cfg = defaults_for("HarmonicExact")
    assert cfg.experiment == "HarmonicExact"
    assert cfg.grid_n == 1024
    assert cfg.eps_ladder == (0.05,)
    cfg2 = defaults_for("harmonic-exact", grid_n=256)
    assert cfg2.grid_n == 256


def test_config_validation():
    with pytest.raises(ConfigurationError):
        defaults_for("HarmonicExact", eps_ladder=(-0.1,))
    with pytest.raises(ConfigurationError):
        defaults_for("HarmonicExact", eps_ladder=(0.05, 0.1))
    with pytest.raises(ConfigurationError):
        defaults_for("HarmonicExact", dt=0.0)
    for field in ("dt", "dt_classical", "shadow_dt", "shadow_t1",
                  "shadow_t_final"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=field):
                defaults_for("BranchAtlas", **{field: bad})
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigurationError, match="sample_times"):
            defaults_for("HarmonicExact", sample_times=(0.5, bad))
    # no sample time leaves HarmonicExact's max() an empty sequence
    with pytest.raises(ConfigurationError, match="sample_times"):
        defaults_for("HarmonicExact", sample_times=())
    # numeric fields convert by annotation; bools and non-numbers are refused
    cfg = defaults_for("HarmonicExact", dt="0.001", grid_n="256", seed=3.0,
                       datum_center=["1.5", "0"])
    assert (cfg.dt, cfg.grid_n, cfg.seed) == (0.001, 256, 3)
    assert cfg.datum_center == (1.5, 0.0)
    assert type(cfg.grid_n) is int and type(cfg.seed) is int
    for field, bad in [("dt", "fast"), ("dt", True), ("grid_n", 256.5),
                       ("grid_n", False), ("datum_center", ["1.5", None]),
                       ("eps_ladder", 0.05), ("theta", None)]:
        with pytest.raises(ConfigurationError, match=field):
            defaults_for("HarmonicExact", **{field: bad})


@pytest.mark.parametrize("field, size", [
    ("datum_k", 4), ("datum_k", 0), ("datum_k", -1),
    ("n_side", 20), ("n_side", 1), ("n_side", 2),
])
def test_config_rejects_lattice_sizes(field, size):
    # lattices take (k - 1) // 2 points per side: datum_k=4 would run a
    # 3x3 mixture, n_side=1 divides 0/0
    with pytest.raises(ConfigurationError, match=field):
        defaults_for("WeakConvergence", **{field: size})


def test_run_rejects_bad_grid_and_theta(tmp_path):
    # grid size, branch-exponent and sample-time guards trip when the run starts
    with pytest.raises(ConfigurationError):
        run_experiment(defaults_for("HarmonicExact", grid_n=123,
                                    out_dir=str(tmp_path / "g")))
    with pytest.raises(ConfigurationError):
        run_experiment(defaults_for("BranchAtlas", theta_list=(0.99,),
                                    out_dir=str(tmp_path / "t")))
    for t_final in (0.5, 0.2):  # the shadows need a positive span
        with pytest.raises(ConfigurationError, match="shadow_t_final"):
            run_experiment(defaults_for("BranchAtlas", shadow_t_final=t_final,
                                        out_dir=str(tmp_path / "s")))
    with pytest.raises(ConfigurationError):
        run_experiment(defaults_for("L2MollifiedRate", sample_times=(-0.1,),
                                    out_dir=str(tmp_path / "r")))


def test_harmonic_rejects_eps_ladder():
    # one rung per run; a longer ladder used to run eps_ladder[0] alone
    with pytest.raises(ConfigurationError):
        run_experiment(defaults_for("HarmonicExact", grid_n=256, dt=5e-3,
                                    eps_ladder=(0.1, 0.05)))


def test_weak_convergence_needs_positive_time(tmp_path):
    # no positive sample time leaves nothing to compare, not a gate failure
    with pytest.raises(ConfigurationError):
        run_experiment(defaults_for("WeakConvergence", sample_times=(-0.1, 0.0),
                                    out_dir=str(tmp_path / "w")))
    assert not (tmp_path / "w").exists()


def test_config_has_no_dead_fields():
    assert "t_final" not in ExperimentConfig.__dataclass_fields__
    assert "eps_mollify_ladder" not in ExperimentConfig.__dataclass_fields__
    with pytest.raises(TypeError):
        defaults_for("HarmonicExact", t_final=1.0)


# ---------------------------------------------------- run + manifest


def _fast_harmonic(tmp_path, sub="run"):
    return defaults_for(
        "HarmonicExact", grid_n=256, dt=5e-3, out_dir=str(tmp_path / sub))


def test_run_harmonic_small(tmp_path):
    man = run_experiment(_fast_harmonic(tmp_path))
    assert man.passed
    assert man.experiment == "HarmonicExact"
    assert man.wall_clock > 0.0
    assert (tmp_path / "run" / "manifest.json").exists()
    data = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert data["experiment"] == "HarmonicExact"
    assert data["passed"] is True
    assert data["config_hash"] == man.config_hash


def test_harmonic_failed_gate_warns(tmp_path):
    # dt=0.05 misses the 1e-4 bound: the failure is named in the manifest
    # next to the two pi/4 phase warnings, as in the other gated drivers
    man = run_experiment(defaults_for("HarmonicExact", grid_n=256, dt=0.05,
                                      out_dir=str(tmp_path / "f")))
    err = man.records["max_l2_error"]
    assert not man.passed and err > 1e-4
    assert f"max L2 error {err:.3e} exceeds the 1e-4 bound" in man.warnings


def test_run_outputs_deterministic(tmp_path):
    m1 = run_experiment(_fast_harmonic(tmp_path, "a"))
    m2 = run_experiment(_fast_harmonic(tmp_path, "b"))
    assert m1.config_hash == m2.config_hash
    outs1 = sorted(p for p in (tmp_path / "a").iterdir() if p.suffix == ".csv")
    outs2 = sorted(p for p in (tmp_path / "b").iterdir() if p.suffix == ".csv")
    assert [p.name for p in outs1] == [p.name for p in outs2]
    for p1, p2 in zip(outs1, outs2):
        assert p1.read_bytes() == p2.read_bytes(), p1.name


def test_run_probe_pure_family(tmp_path):
    cfg = defaults_for("ConjectureProbe", grid_n=256,
                       eps_ladder=(0.1, 0.05), out_dir=str(tmp_path / "p"))
    man = run_experiment(cfg)
    assert man.passed
    rows = (tmp_path / "p" / "conjecture_probe.csv").read_text().splitlines()
    assert rows[0].startswith("eps,")
    # pure coherent family: husimi sup * eps = 1/(5 pi) at every eps
    for line in rows[1:]:
        parts = line.split(",")
        assert float(parts[3]) == pytest.approx(1.0 / (5 * np.pi), rel=1e-12)


def test_run_probe_box_family():
    # about box_area/(2 pi eps) coherent members spread over the box: the
    # Husimi sup stays near the uniform density 1/box_area at every eps,
    # so sup * eps falls with eps instead of staying at the pure 1/(5 pi)
    # (N=256 cannot hold the box's momenta at eps=0.05)
    ladder = (0.2, 0.1, 0.05)
    man = run_experiment(defaults_for("ConjectureProbe", probe_family="box",
                                      grid_n=512, eps_ladder=ladder))
    box_area = defaults_for("ConjectureProbe").box_area
    for sup in man.records["sups"]:
        assert sup == pytest.approx(1.0 / box_area, rel=0.02)
    sup_eps = man.records["sup_times_eps"]
    assert all(b < a for a, b in zip(sup_eps, sup_eps[1:]))


def test_random_family_harmonic_closed_form():
    # on the harmonic potential a coherent state stays coherent and its
    # centre follows the classical rotation, so every sample's Husimi
    # distance to its atom is the same lattice sum of
    # (1 - e^{-eps r^2/4}) e^{-eps r^2} e^{-r^2/2} dxi deta
    ladder = (0.2, 0.1, 0.05)
    man = run_experiment(defaults_for("RandomFamily", m_samples=4,
                                      eps_ladder=ladder,
                                      sample_times=(-0.1, 0.1), grid_n=1024))
    r2 = NODES[:, None] ** 2 + NODES[None, :] ** 2
    for eps, avg in zip(ladder, man.records["averages"]):
        exact = np.sum((1.0 - np.exp(-eps * r2 / 4.0)) * np.exp(-eps * r2)
                       * np.exp(-r2 / 2.0)) * 0.25
        assert avg == pytest.approx(exact, rel=1e-11), eps


@pytest.mark.parametrize("eps_mollify", [0.0, 0.1])
def test_transport_walk_matches_transport_from_zero(eps_mollify):
    # each gap is a multiple of dt, so the walk takes the same RK4 steps
    cfg = defaults_for("WeakConvergence")
    pot, datum = _potential(cfg), _mixture_datum(cfg)
    field_grid = build_position_grid(1024, -8.0, 8.0) if eps_mollify else None
    times = (0.25, 0.5, 0.75, 1.0)
    walk = _evolve_at(datum, times, _transport(pot, eps_mollify, 5e-3,
                                               field_grid=field_grid))
    for t, cloud in walk:
        direct = transport_particles(datum, pot, eps_mollify, 5e-3, t,
                                     field_grid=field_grid)
        assert np.array_equal(cloud.atoms, direct.atoms), t


def test_unknown_experiment_raises():
    with pytest.raises(ConfigurationError):
        defaults_for("Nonsense")


# ----------------------------------------------------------------- CLI


def _write_cfg(tmp_path, payload):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_run_pass(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "HarmonicExact", "grid_n": 256, "dt": 5e-3,
    })
    code = main(["run", "HarmonicExact", "--config", cfg,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_cli_assertion_failure_exit_1(tmp_path):
    # deliberately coarse shadow step: one RK4 step per 0.1 span errs
    # about 2e-4, against the 1e-5 tracking tolerance
    cfg = _write_cfg(tmp_path, {
        "experiment": "BranchAtlas", "theta_list": [0.5], "shadow_dt": 0.1,
    })
    code = main(["run", "BranchAtlas", "--config", cfg,
                 "--out", str(tmp_path / "out1")])
    assert code == 1
    man = json.loads((tmp_path / "out1" / "manifest.json").read_text())
    assert man["passed"] is False


def test_cli_unknown_experiment_exit_2(tmp_path):
    assert main(["run", "Bogus", "--out", str(tmp_path / "x")]) == 2


def test_cli_config_for_other_experiment_exit_2(tmp_path, capsys):
    # the file's experiment must be the one being run, not silently replaced
    cfg = _write_cfg(tmp_path, {"experiment": "WeakConvergence", "grid_n": 256})
    assert main(["run", "HarmonicExact", "--config", cfg,
                 "--out", str(tmp_path / "other")]) == 2
    err = capsys.readouterr().err
    assert "WeakConvergence" in err and "HarmonicExact" in err
    assert not (tmp_path / "other").exists()
    # an alias of the same experiment is the same experiment
    cfg = _write_cfg(tmp_path, {"experiment": "harmonic-exact", "grid_n": 256,
                                "dt": 5e-3})
    assert main(["run", "HarmonicExact", "--config", cfg,
                 "--out", str(tmp_path / "alias")]) == 0


def test_cli_bad_config_key_exit_2(tmp_path):
    cfg = _write_cfg(tmp_path, {"experiment": "HarmonicExact", "gridn": 256})
    assert main(["run", "HarmonicExact", "--config", cfg,
                 "--out", str(tmp_path / "y")]) == 2


def test_cli_invalid_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["run", "HarmonicExact", "--config", str(p)]) == 2


def test_cli_bad_grid_exit_2(tmp_path):
    cfg = _write_cfg(tmp_path, {"experiment": "HarmonicExact", "grid_n": 123})
    assert main(["run", "HarmonicExact", "--config", cfg,
                 "--out", str(tmp_path / "z")]) == 2


@pytest.mark.parametrize("experiment, field, bad", [
    ("L2MollifiedRate", "datum_center", [1.5]),
    ("RandomFamily", "law_scale", [1.0]),
    ("ConcentrationSplit", "profile_center", [0.3]),
    ("ConcentrationSplit", "profile_center", [0.3, 0.0, 0.1]),
    ("L2MollifiedRate", "p_window", -1),
    ("L2MollifiedRate", "p_window", 0),
    ("L2MollifiedRate", "p_window", "inf"),
    ("L2MollifiedRate", "p_window", float("nan")),
    ("ConjectureProbe", "box_area", -1),
    ("ConjectureProbe", "box_area", 0),
    ("ConjectureProbe", "box_area", float("inf")),
])
def test_cli_bad_pair_or_window_exit_2(tmp_path, capsys, experiment, field, bad):
    # these used to end in a traceback, or in a degenerate run
    cfg = _write_cfg(tmp_path, {"experiment": experiment, field: bad})
    assert main(["run", experiment, "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_nan_step_exit_2(tmp_path):
    # json reads NaN and Infinity; they must be refused before a run
    # reaches round(), and no sample time before HarmonicExact's max()
    for name, overrides in [
            ("dt-nan", {"dt": float("nan")}), ("dt-inf", {"dt": float("inf")}),
            ("t-inf", {"grid_n": 256, "dt": 5e-3, "sample_times": [float("inf")]}),
            ("t-empty", {"grid_n": 256, "dt": 5e-3, "sample_times": []})]:
        cfg = _write_cfg(tmp_path, {"experiment": "HarmonicExact", **overrides})
        assert main(["run", "HarmonicExact", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 2, name
    # BranchAtlas would overflow round() on shadow_t_final=inf and run
    # one step per span on shadow_dt=inf
    for name, overrides in [("shadow-t-inf", {"shadow_t_final": float("inf")}),
                            ("shadow-dt-inf", {"shadow_dt": float("inf")})]:
        cfg = _write_cfg(tmp_path, {"experiment": "BranchAtlas", **overrides})
        assert main(["run", "BranchAtlas", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 2, name
    # a quoted number runs as the number; a word or a bool is refused
    for name, dt in [("dt-word", "fast"), ("dt-bool", True)]:
        cfg = _write_cfg(tmp_path, {"experiment": "HarmonicExact", "dt": dt})
        assert main(["run", "HarmonicExact", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 2, name
    hashes = []
    for name, dt in [("dt-quoted", "0.001"), ("dt-number", 0.001)]:
        cfg = _write_cfg(tmp_path, {"experiment": "HarmonicExact",
                                    "grid_n": 256, "dt": dt})
        assert main(["run", "HarmonicExact", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 0, name
        hashes.append(json.loads(
            (tmp_path / name / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]


def test_cli_eps_override(tmp_path):
    cfg = _write_cfg(tmp_path, {"experiment": "ConjectureProbe", "grid_n": 256})
    code = main(["run", "ConjectureProbe", "--config", cfg, "--eps", "0.1",
                 "--out", str(tmp_path / "pr")])
    assert code == 0
    text = (tmp_path / "pr" / "conjecture_probe.csv").read_text()
    assert len(text.splitlines()) == 2  # header + single eps row
    with pytest.raises(SystemExit):  # `run ConjectureProbe` is the one route
        main(["probe"])


def test_cli_sweep_per_eps_dirs(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "experiment": "ConjectureProbe", "grid_n": 256,
        "eps_ladder": [0.1, 0.05],
    })
    code = main(["sweep", "ConjectureProbe", "--config", cfg,
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    assert (tmp_path / "sw" / "eps_0.1" / "manifest.json").exists()
    assert (tmp_path / "sw" / "eps_0.05" / "manifest.json").exists()


def test_cli_sweep_rate_single_rung(tmp_path):
    # a one-rung ladder has no rate to fit; the sweep still reports
    cfg = _write_cfg(tmp_path, {"experiment": "L2MollifiedRate",
                                "sample_times": [0.01]})
    code = main(["sweep", "L2MollifiedRate", "--config", cfg, "--eps", "0.2",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    man = json.loads((tmp_path / "sw" / "eps_0.2" / "manifest.json").read_text())
    assert len(man["records"]["sup_distances"]) == 1
    assert "fitted_slope" not in man["records"]


def test_run_harmonic_negative_time(tmp_path):
    # t < 0 samples the backward rotation
    man = run_experiment(defaults_for(
        "HarmonicExact", grid_n=256, dt=5e-3, sample_times=(-0.5, 0.5),
        out_dir=str(tmp_path / "neg")))
    assert man.passed
    assert man.records["max_l2_error"] < 1e-4


# ---------------------------------------------------- split grid sizing

@pytest.mark.parametrize("pname, sizes", [("even", (300, 2592, 24500)),
                                          ("shifted", (250, 2100, 19200))])
def test_split_grid_is_smallest_even_fast_length(pname, sizes):
    # the classical pre-flight only; no propagation
    cfg = defaults_for("ConcentrationSplit")
    profile = _split_profiles(cfg)[pname]
    times = sorted(t for t in cfg.sample_times if t > 0)
    length = cfg.x_max - cfg.x_min
    got = []
    for eps in (1e-2, 1e-3, 1e-4):
        lattice = concentration_lattice(profile, eps, cfg.n_side)
        n, max_p, _ = _split_grid_size(cfg, profile, eps, _potential(cfg),
                                       times, lattice)
        dx_need, _ = profile.resolution(eps)
        # coherent_state's window rule and concentrating_wigner_data's
        # resolution, at the largest classical momentum
        need = max(_window_points(1.05 * max_p, eps, length), length / dx_need)
        fast_even = [m for m in range(int(need) + 1, n + 1)
                     if m % 2 == 0 and sfft.next_fast_len(m) == m]
        assert fast_even[0] == n
        assert length / n < dx_need
        got.append(n)
    assert tuple(got) == sizes


# ------------------------------------------------------- record pins

# tiny-size runs of the drivers no other test exercises; the pinned
# records in pinned_records.json are their outputs at these sizes (the
# science gates are not asserted here)
_PINNED = {
    "WeakConvergence": dict(grid_n=256, datum_k=3, eps_ladder=(0.2, 0.1, 0.05),
                            sample_times=(0.05, 0.1)),
    "L2MollifiedRate": dict(sample_times=(0.01, 0.02)),
    "ConcentrationSplit": dict(eps_ladder=(1e-2, 1e-3), n_side=7,
                               sample_times=(0.1,)),
    "RandomFamily": dict(grid_n=256, m_samples=4, eps_ladder=(0.2, 0.1, 0.05),
                         sample_times=(-0.1, 0.1)),
}


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        return {k: v for key, val in obj.items()
                for k, v in _leaves(val, f"{prefix}/{key}").items()}
    if isinstance(obj, list):
        return {k: v for i, val in enumerate(obj)
                for k, v in _leaves(val, f"{prefix}[{i}]").items()}
    return {prefix: obj}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_driver_records_pinned(tmp_path, name):
    out = tmp_path / name
    man = run_experiment(defaults_for(name, out_dir=str(out), **_PINNED[name]))
    written = json.loads((out / "manifest.json").read_text())
    csvs = [n for n in man.outputs if n.endswith(".csv")]
    assert csvs and all((out / n).stat().st_size > 0 for n in csvs)
    got = _leaves(written["records"])
    pinned = json.loads(
        (Path(__file__).parent / "pinned_records.json").read_text())[name]
    ref = _leaves(pinned)
    assert got.keys() == ref.keys()
    for key, want in ref.items():
        if isinstance(want, float):
            assert np.isfinite(got[key]), key
            assert abs(got[key] - want) <= 1e-10 * abs(want), key
        else:
            assert got[key] == want, key


def _block_sizes(members: int) -> list:
    return [min(_ROWS, members - j) for j in range(0, members, _ROWS)]


@pytest.mark.parametrize("name", ["ConcentrationSplit", "RandomFamily"])
def test_experiments_step_members_in_row_blocks(monkeypatch, name):
    # one propagate_rows call per block of _ROWS members and sample time,
    # and no per-member propagate
    blocks = []
    real = experiments.propagate_rows

    def counting(rows, eps, grid, pot, cfg):
        blocks.append(rows.shape[0])
        return real(rows, eps, grid, pot, cfg)

    def refuse(*args):
        raise AssertionError("per-member propagate")

    monkeypatch.setattr(experiments, "propagate_rows", counting)
    monkeypatch.setattr(experiments, "propagate", refuse)
    cfg = defaults_for(name, **_PINNED[name])
    run_experiment(cfg)
    if name == "ConcentrationSplit":
        members = [len(_mirror_jobs(concentration_lattice(profile, eps, cfg.n_side)))
                   for profile in _split_profiles(cfg).values()
                   for eps in cfg.eps_ladder]
        assert max(members) > _ROWS  # full blocks and a partial one
        walks = [len(cfg.sample_times)]
    else:
        members = [cfg.m_samples] * len(cfg.eps_ladder)
        walks = [sum(t > 0 for t in cfg.sample_times),
                 sum(t < 0 for t in cfg.sample_times)]
    assert blocks == [size for m in members for size in _block_sizes(m)
                      for n_times in walks for _ in range(n_times)]


# ------------------------------------------------------------ warnings

# sizes for the drivers _PINNED leaves out
_SMALL = {
    "HarmonicExact": dict(grid_n=256, dt=5e-3),
    "ConjectureProbe": dict(grid_n=256, eps_ladder=(0.1, 0.05)),
    "BranchAtlas": dict(theta_list=(0.5,)),
}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_manifest_warnings_pinned(tmp_path, name):
    # every driver's manifest lists the SemiphaseWarnings raised during its
    # run; ConcentrationSplit's potential-phase warning is among them
    out = tmp_path / name
    sizes = {**_PINNED, **_SMALL}[name]
    man = run_experiment(defaults_for(name, out_dir=str(out), **sizes))
    pinned = json.loads(
        (Path(__file__).parent / "pinned_warnings.json").read_text())[name]
    assert list(man.warnings) == pinned
    assert json.loads((out / "manifest.json").read_text())["warnings"] == pinned


def test_emitter_records_own_category_and_reshows_others():
    cfg = defaults_for("ConjectureProbe")
    with pytest.warns(RuntimeWarning, match="numpy-style"):
        with _Emitter(cfg) as em:
            em.warn("first")
            warnings.warn("numpy-style", RuntimeWarning)
            em.warn("second")
            em.warn("first")
            man = em.finish(passed=True)
    assert man.warnings == ("first", "second")


def test_failed_run_restores_warning_state(tmp_path):
    # a 512-point grid fails check_fourier_conditions inside the emitter
    filters, show = list(warnings.filters), warnings.showwarning
    with pytest.raises(ConfigurationError, match="shell analysis"):
        run_experiment(defaults_for("L2MollifiedRate", grid_n=512,
                                    out_dir=str(tmp_path / "r")))
    assert (tmp_path / "r").is_dir()  # the emitter was entered
    assert warnings.filters == filters
    assert warnings.showwarning is show
