"""Experiment registry, config plumbing, manifests, CLI exit codes."""

import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.special import erfc

from semiphase import ConfigurationError, DensityEnsemble, coherent_state
from semiphase.classical import TrajectoryBranch
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
from semiphase.errors import NumericsError
from semiphase.experiments import (_ROWS, _Emitter, _Window, _evolve_at, _h2_norm,
                                   _halfplane_weights, _mirror_jobs, _mixture_datum,
                                   _potential, _roll_rows, _sample_walks,
                                   _split_profiles, _transport, _walk_members)
from semiphase.grids import build_position_grid
from semiphase.metrics import (NODES, RateFit, _as_probability, _char_rows,
                               char_distance, char_function)
from semiphase.phasespace import AtomicMeasure, GridDensity, build_wigner_grid
from semiphase.quantum import PropagatorConfig, propagate, propagate_rows
from semiphase.states import concentration_lattice


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


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_config_refuses_repeated_sample_times(name):
    # per-time sums are keyed by t: ConcentrationSplit added every member
    # twice at a repeated time, reporting half-plane masses near 2
    with pytest.raises(ConfigurationError, match="sample_times"):
        defaults_for(name, sample_times=(0.1, 0.2, 0.2))


def test_sample_walks_run_away_from_zero():
    cfg = defaults_for("RandomFamily", sample_times=(0.5, -1.0, 1.0, -0.5, 0.0))
    assert _sample_walks(cfg, (1, -1)) == [[0.5, 1.0], [-0.5, -1.0]]
    assert _sample_walks(cfg) == [[0.5, 1.0]]
    with pytest.raises(ConfigurationError, match="nonzero sample times"):
        _sample_walks(defaults_for("RandomFamily", sample_times=(0.0,)), (1, -1))


def test_config_has_no_dead_fields():
    assert "t_final" not in ExperimentConfig.__dataclass_fields__
    assert "eps_mollify_ladder" not in ExperimentConfig.__dataclass_fields__
    assert "dump_grids" not in ExperimentConfig.__dataclass_fields__
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
    assert f"gate failed: max L2 error = {err:.3e}, needs < 1e-4" in man.warnings


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


def test_cli_half_domain_refusal_exit_2(tmp_path, capsys):
    # the classical pre-flight refuses an excursion past the half-domain
    cfg = _write_cfg(tmp_path, {"experiment": "ConcentrationSplit",
                                "x_min": -1, "x_max": 1})
    assert main(["run", "ConcentrationSplit", "--config", cfg,
                 "--out", str(tmp_path / "x")]) == 2
    assert "exceeds the half-domain" in capsys.readouterr().err


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
    # RandomFamily: one propagate_rows call per block of _ROWS members and
    # sample time. ConcentrationSplit: every mirror job is stepped exactly
    # once per sample time, in blocks of one window grid and at most _ROWS
    # rows. Neither steps a member alone through propagate.
    blocks, walks, advances = [], [], []
    real = experiments.propagate_rows
    real_walk, real_advance = experiments._walk_members, _Window.advance

    def counting(rows, eps, grid, pot, cfg):
        blocks.append(rows.shape[0])
        return real(rows, eps, grid, pot, cfg)

    def refuse(*args):
        raise AssertionError("per-member propagate")

    def recording_walk(starts, walk_times, pot, dt):
        walks.append([])
        for t, j0, blk in real_walk(starts, walk_times, pot, dt):
            walks[-1].append((t, j0, blk.rows.shape))
            yield t, j0, blk

    def recording_advance(self, span, pot, dt):
        advances.append((id(self), span))
        return real_advance(self, span, pot, dt)

    monkeypatch.setattr(experiments, "propagate_rows", counting)
    monkeypatch.setattr(experiments, "propagate", refuse)
    monkeypatch.setattr(experiments, "_walk_members", recording_walk)
    monkeypatch.setattr(_Window, "advance", recording_advance)
    cfg = defaults_for(name, **_PINNED[name])
    run_experiment(cfg)
    if name == "ConcentrationSplit":
        members = [len(_mirror_jobs(concentration_lattice(profile, eps, cfg.n_side)))
                   for profile in _split_profiles(cfg).values()
                   for eps in cfg.eps_ladder]
        assert max(members) > _ROWS  # more than one block per rung
        assert len(walks) == len(members)
        for yields, m in zip(walks, members):
            for t in cfg.sample_times:
                spans = sorted((j0, j0 + shape[0]) for s, j0, shape in yields if s == t)
                # the blocks at t tile the jobs 0 .. m - 1, each job once
                assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
                assert spans[-1][1] == m
            assert all(len(shape) == 2 and shape[0] <= _ROWS for *_, shape in yields)
        # one advance per block and sample time (one time here: one span each)
        assert len(advances) == sum(map(len, walks))
        assert len(set(advances)) == len(advances)
    else:
        members = [cfg.m_samples] * len(cfg.eps_ladder)
        n_walks = [sum(t > 0 for t in cfg.sample_times),
                   sum(t < 0 for t in cfg.sample_times)]
        assert blocks == [size for m in members for size in _block_sizes(m)
                          for n_times in n_walks for _ in range(n_times)]


@pytest.mark.filterwarnings("ignore::semiphase.SemiphaseWarning")
def test_weak_convergence_block_matches_the_member_ensemble(monkeypatch):
    # the mixture steps as one (datum_k^2, N) block per rung and reduces
    # through one _char_rows per sample time: bit for bit char_function of
    # the members propagated one at a time
    cfg = defaults_for("WeakConvergence", **_PINNED["WeakConvergence"])
    blocks, seen = [], []
    real_rows, real_distance = experiments.propagate_rows, experiments.char_distance

    def counting(rows, *args):
        blocks.append(rows.shape)
        return real_rows(rows, *args)

    def recording(chi_mu, chi_nu, heat_time=0.0):
        seen.append(chi_mu.copy())
        return real_distance(chi_mu, chi_nu, heat_time)

    monkeypatch.setattr(experiments, "propagate_rows", counting)
    monkeypatch.setattr(experiments, "char_distance", recording)
    run_experiment(cfg)
    times = cfg.sample_times
    assert blocks == [(cfg.datum_k ** 2, cfg.grid_n)] * (len(cfg.eps_ladder) * len(times))
    pot, datum = _potential(cfg), _mixture_datum(cfg)
    grid = build_position_grid(cfg.grid_n, cfg.x_min, cfg.x_max)
    step = lambda state, span: propagate(state, pot, PropagatorConfig(cfg.dt, span))
    want = []
    for eps in cfg.eps_ladder:
        walks = [_evolve_at(coherent_state(x, p, eps, grid), times, step)
                 for x, p in zip(datum.xs, datum.ps)]
        for moved in zip(*walks):
            want.append(char_function(DensityEnsemble(
                tuple((w, s) for w, (_, s) in zip(datum.masses, moved)), eps)))
    # the raw and the mollified distance of a sample time share its chi
    assert len(seen) == 2 * len(want)
    for raw, moll, chi in zip(seen[::2], seen[1::2], want):
        assert np.array_equal(raw, chi) and np.array_equal(moll, chi)


def test_walk_members_refuses_a_row_that_lost_its_norm(monkeypatch):
    eps = 1e-2
    grid = build_position_grid(256, -2.0, 2.0)
    rows = np.stack([coherent_state(x0, 0.1, eps, grid).values
                     for x0 in np.linspace(-0.5, 0.5, 5)])
    pot = experiments.rough_power_potential(0.5)
    walk = [(t, j0, blk.rows.shape)
            for t, j0, blk in _walk_members([_Window(grid, eps, rows)], [0.02, 0.04], pot, 1e-3)]
    assert walk == [(0.02, 0, (5, 256)), (0.04, 0, (5, 256))]
    real = experiments.propagate_rows

    def scaled(rows, *args):
        out = real(rows, *args).copy()
        out[3] *= 1.001
        return out

    monkeypatch.setattr(experiments, "propagate_rows", scaled)
    with pytest.raises(NumericsError, match="norm"):
        list(_walk_members([_Window(grid, eps, rows)], [0.02], pot, 1e-3))


# ------------------------------------------------------ co-moving windows

# the pinned ConcentrationSplit config's fixed grid sizes (profile, eps)
_PINNED_N = {("even", 1e-2): 140, ("even", 1e-3): 960,
             ("shifted", 1e-2): 96, ("shifted", 1e-3): 560}


def _framed_pair(eps=1e-3):
    """Two coherent states on a 256-point window in their frames, and on a
    1024-point lab grid with the same dx: (window, rows, frames, lab, lab rows)."""
    lab = build_position_grid(1024, -1.0, 1.0)
    n = 256
    win = build_position_grid(n, -0.5 * n * lab.dx, 0.5 * n * lab.dx)
    centres = np.array([(0.3, 0.4), (-0.21, -0.1)])
    ia = np.rint(centres[:, 0] / lab.dx).astype(int) + np.array([3, -2])
    mb = np.rint(centres[:, 1] / (eps * 2 * np.pi / win.length)).astype(int) + 1
    a, b = ia * win.dx, mb * eps * 2 * np.pi / win.length
    rows = np.stack([coherent_state(x - ai, p - bi, eps, win).values
                     for (x, p), ai, bi in zip(centres, a, b)])
    lab_rows = np.stack([coherent_state(x, p, eps, lab).values for x, p in centres])
    return win, rows, (a, b), lab, lab_rows


def test_frame_rolls_are_exact():
    # a re-centre rolls phi in x, a boost rolls its spectrum in k; each
    # undone is the input bit for bit
    win, rows, _, _, _ = _framed_pair()
    s, m = np.array([5, -7]), np.array([3, -4])
    moved = _roll_rows(rows, s)
    spec = sfft.fft(moved, axis=-1)
    boosted = _roll_rows(spec, m)
    assert np.array_equal(_roll_rows(boosted, -m), spec)
    assert np.array_equal(_roll_rows(moved, -s), rows)
    assert np.array_equal(moved[0], np.roll(rows[0], -5))
    assert _roll_rows(rows, np.zeros(len(rows), np.intp)) is rows


def test_halfplane_weights_are_erfc_at_any_node_shape():
    eps, xsep = 1e-3, 0.2
    nodes = np.linspace(-0.5, 0.5, 301)
    want = 0.5 * erfc(np.array([xsep - nodes, nodes + xsep]) / (2.0 * np.sqrt(eps)))
    got = _halfplane_weights(nodes, eps, xsep)
    assert got.shape == (2, 301)
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert np.array_equal(_halfplane_weights(nodes.reshape(7, 43), eps, xsep),
                          got.reshape(2, 7, 43))


def test_h2_norm_matches_the_full_spectrum():
    # the half spectrum of the real transform, its +-p pairs counted twice
    grid = build_wigner_grid(build_position_grid(128, -4.0, 4.0), 0.1)
    x, p = grid.x[:, None], grid.p[None, :]
    noise = np.random.default_rng(3).standard_normal(grid.shape)  # every column, Nyquist too
    rho = GridDensity(np.exp(-(x - 0.3) ** 2 - 2.0 * p ** 2) + 1e-3 * noise, grid)
    gx, gp = grid.x_grid, grid.p_grid
    spec = sfft.fft2(rho.values) * (1.0 + gx.k[:, None] ** 2 + gp.k[None, :] ** 2)
    want = np.sqrt(np.sum(np.abs(spec) ** 2) / rho.values.size * grid.cell_area)
    assert abs(_h2_norm(rho) - want) <= 1e-12 * want


def test_framed_rows_match_the_lab_grid():
    # e^{-i(xi a + b eta)} times phi's ambiguity integral, and erfc weights
    # at the nodes a + y, reproduce the same states on a lab grid
    eps = 1e-3
    win, rows, frames, lab, lab_rows = _framed_pair(eps)
    weights = ((0.3, 0.7), (0.5, 0.0))
    got = _char_rows(rows, weights, eps, win, frames)
    want = _char_rows(lab_rows, weights, eps, lab)
    assert np.max(np.abs(got - want)) <= 1e-12
    for xsep in (0.05, 0.25):
        w_win = _halfplane_weights(frames[0][:, None] + win.nodes, eps, xsep)
        w_lab = _halfplane_weights(lab.nodes, eps, xsep)
        got = np.sum(w_win * np.abs(rows) ** 2, axis=-1) * win.dx
        want = w_lab @ (np.abs(lab_rows) ** 2).T * lab.dx
        assert np.max(np.abs(got - want)) <= 1e-12


def test_reframe_keeps_the_lab_state():
    # moving frames to targets many cells away changes phi, not psi
    eps = 1e-3
    win_grid, _, (a, b), _, _ = _framed_pair(eps)
    x0, p0 = np.array([0.3, -0.21]), np.array([0.4, -0.1])
    centres = np.stack([np.stack([x0, p0], -1), np.stack([x0 + 0.02, p0 - 0.05], -1)])
    win = _Window(win_grid, eps, trace=(np.array([0.0, 1.0]), centres))
    before = _char_rows(win.rows, ((1.0, 1.0),), eps, win.grid, win.frames)
    win._guard()
    win._reframe(1.0)  # the centres at the second stop
    assert win.recentres == 4  # both rows, in x and in k
    after = _char_rows(win.rows, ((1.0, 1.0),), eps, win.grid, win.frames)
    assert np.max(np.abs(after - before)) <= 1e-12


def test_undersized_window_grows_in_x_and_k():
    # a packet near the edges of a 32-point window, moving near its
    # Nyquist momentum: the guard pads in x and in k until the edge mass
    # and the top-eighth spectral share are both below 1e-6
    eps = 1e-3
    grid = build_position_grid(32, -0.08, 0.08)
    y = grid.nodes
    phi = np.exp(-(y - 0.01) ** 2 / (2 * eps) + 1j * 0.5 * y / eps)
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * grid.dx)
    win = _Window(grid, eps, phi[None])
    win.trace = (np.zeros(1), np.zeros((1, 1, 2)))
    win._guard()
    assert win.grid.length > grid.length  # grew in x
    assert win.grid.dx < grid.dx  # grew in k
    assert win.edge <= 1e-6 and win.tail <= 1e-6
    # k-padding splits the Nyquist mode in two and keeps half its power:
    # the undersized start had some there
    assert abs(np.sum(np.abs(win.rows) ** 2) * win.grid.dx - 1.0) <= 1e-4


def test_windows_as_long_as_the_domain_run_on_it():
    # a long walk stretches the rings past the domain's length: those jobs
    # run last, in fixed blocks on [x_min, x_max), and the blocks still
    # tile the jobs
    eps, times = 1e-2, [3.0]
    cfg = defaults_for("ConcentrationSplit", eps_ladder=(eps,), sample_times=tuple(times),
                       n_side=7, x_min=-3.0, x_max=3.0)
    jobs = _mirror_jobs(concentration_lattice(_split_profiles(cfg)["even"], eps, cfg.n_side))
    blocks, masses, _, _ = experiments._split_windows(cfg, eps, _potential(cfg), times, jobs)
    blocks = list(blocks)
    fixed = [b for b in blocks if b.trace is None]
    assert fixed and blocks[-len(fixed):] == fixed and len(fixed) < len(blocks)
    assert {(b.grid.x_min, b.grid.x_max) for b in fixed} == {(-3.0, 3.0)}
    assert all(b.frames is None and not b.cells.any() for b in fixed)
    assert sum(len(b.rows) for b in blocks) == len(jobs) == masses.shape[1]
    assert all(len(b.rows) <= _ROWS for b in blocks)


def _split_blocks(eps=1e-3, times=(0.096,)):
    """The even profile's mirror jobs at eps on their _split_windows blocks."""
    cfg = defaults_for("ConcentrationSplit", eps_ladder=(eps,), sample_times=times,
                       n_side=7, dt=2e-3)
    jobs = _mirror_jobs(concentration_lattice(_split_profiles(cfg)["even"], eps, cfg.n_side))
    pot = _potential(cfg)
    blocks, _, _, _ = experiments._split_windows(cfg, eps, pot, times, jobs)
    return list(blocks), pot, cfg.dt


def test_window_clock_runs_on_across_sample_times():
    # 24 + 24 steps over two sample times check and re-frame as 48 steps
    # straight to the second: the window's clock carries over between spans
    times = (0.048, 0.096)
    split, pot, dt = _split_blocks(times=times)
    straight, _, _ = _split_blocks(times=times)
    assert all(b.trace is not None for b in split)
    list(_walk_members(split, times, pot, dt))
    list(_walk_members(straight, times[1:], pot, dt))
    assert sum(b.recentres for b in split) > 0
    for a, b in zip(split, straight):
        assert a.t == b.t == 0.096
        assert np.array_equal(a.cells, b.cells) and a.recentres == b.recentres
        assert a.grid == b.grid
        assert np.max(np.abs(a.rows - b.rows)) <= 1e-12


def test_advance_moves_either_block_in_place():
    (win, *_), pot, dt = _split_blocks()
    grid = build_position_grid(256, -2.0, 2.0)
    fixed = _Window(grid, 1e-2, coherent_state(0.3, 0.1, 1e-2, grid).values[None])
    for blk in (fixed, win):
        start, cells = blk.rows.copy(), blk.cells.copy()
        assert blk.advance(0.024, pot, dt) is blk
        assert blk.rows.shape == start.shape and not np.allclose(blk.rows, start)
    assert not fixed.cells.any() and fixed.frames is None
    assert win.t == 0.024 and not np.array_equal(win.cells, cells)


def test_windows_match_doubled_fixed_grids():
    # every Husimi distance and mass of the pinned run is within 1e-5 of
    # the same run on fixed grids of twice today's size (propagate_rows)
    cfg = defaults_for("ConcentrationSplit", **_PINNED["ConcentrationSplit"])
    man = run_experiment(cfg)
    pot, (t,) = _potential(cfg), cfg.sample_times
    branch = TrajectoryBranch(sign=1, t0=0.0, theta=cfg.theta)
    for pname, profile in _split_profiles(cfg).items():
        c_plus, c_minus = profile.half_masses()
        target = char_function(AtomicMeasure(((c_plus, branch.X(t), branch.P(t)),
                                              (c_minus, -branch.X(t), -branch.P(t)))))
        records = man.records["profiles"][pname]["per_eps"]
        for rec, eps in zip(records, cfg.eps_ladder):
            jobs = _mirror_jobs(concentration_lattice(profile, eps, cfg.n_side))
            grid = build_position_grid(2 * _PINNED_N[pname, eps], cfg.x_min, cfg.x_max)
            rows = propagate_rows(
                np.stack([coherent_state(x, p, eps, grid).values for x, p, _, _ in jobs]),
                eps, grid, pot, PropagatorConfig(dt=cfg.dt, t_final=t))
            w = np.array([job[2:] for job in jobs]).T
            chi_self, chi_mirror = _char_rows(rows, w, eps, grid)
            chi = _as_probability(chi_self + np.conj(chi_mirror))
            half = (_halfplane_weights(grid.nodes, eps, branch.X(t) / 2.0)
                    @ (np.abs(rows) ** 2).T * grid.dx)
            right, left = half @ w[0] + half[::-1] @ w[1]
            (got,) = rec["times"]
            assert abs(got["d_husimi"] - char_distance(chi, target, heat_time=eps)) <= 1e-5
            assert abs(got["right_mass"] - right) <= 1e-5
            assert abs(got["left_mass"] - left) <= 1e-5
            assert rec["max_edge_mass"] <= 1e-6 and rec["max_spectral_tail"] <= 1e-6


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
            man = em.finish()
    assert man.warnings == ("first", "second")
    assert man.passed  # no gate failed


def test_failed_run_restores_warning_state(tmp_path):
    # a 512-point grid fails check_fourier_conditions inside the emitter
    filters, show = list(warnings.filters), warnings.showwarning
    with pytest.raises(ConfigurationError, match="shell analysis"):
        run_experiment(defaults_for("L2MollifiedRate", grid_n=512,
                                    out_dir=str(tmp_path / "r")))
    assert (tmp_path / "r").is_dir()  # the emitter was entered
    assert warnings.filters == filters
    assert warnings.showwarning is show


# ------------------------------------------------------------------ gates


def _rising():
    """A distance that grows with every call, so that no ladder decreases."""
    calls = itertools.count(1.0)
    return lambda *args, **kwargs: next(calls)


def _zero_weights():
    return lambda nodes, eps, xsep: np.zeros((2,) + nodes.shape)


def _nan_on_call(name, k, nan=np.nan):
    """experiments.<name>, returning nan on its k-th call only.

    k > 1, so the NaN is never the first value a maximum sees.
    """
    def factory():
        real, calls = getattr(experiments, name), itertools.count(1)
        return lambda *args, **kwargs: (nan if next(calls) == k
                                        else real(*args, **kwargs))
    return factory


def _nan_left_weights():
    # a NaN weight below -x_sep. Each member's mass below enters both sums
    # (0 * NaN is NaN), so the right and left masses are both NaN: no
    # weight makes the left mass alone NaN
    real = experiments._halfplane_weights

    def weights(nodes, eps, xsep):
        w = np.array(real(nodes, eps, xsep))
        w[1] = np.nan
        return w
    return weights


# case: (experiment, overrides of the _PINNED/_SMALL sizes, factories of
# the experiments-module names to patch, number of gates that fail)
_FAILING = {
    "HarmonicExact": ("HarmonicExact", {"dt": 0.05}, {}, 1),
    "WeakConvergence": ("WeakConvergence", {}, {"char_distance": _rising}, 1),
    "L2MollifiedRate-rate": (
        "L2MollifiedRate", {},
        {"fit_rate": lambda: lambda eps, d: RateFit(tuple(eps), tuple(d), -1.0, 0.5)},
        1),
    "L2MollifiedRate-finite": (
        "L2MollifiedRate", {"eps_ladder": [0.2], "sample_times": [0.01]},
        {"l2_distance": lambda: lambda a, b: np.inf}, 1),
    # both profiles' husimi ladders and both mass gates at the one time
    "ConcentrationSplit": ("ConcentrationSplit", {},
                           {"char_distance": _rising,
                            "_halfplane_weights": _zero_weights}, 4),
    "RandomFamily": ("RandomFamily", {}, {"weak_distance": _rising}, 1),
    "BranchAtlas": ("BranchAtlas", {"shadow_dt": 0.1},
                    {"branch_ode_residual": lambda: lambda br, t: (1.0, 1.0)}, 2),
    # a NaN that is not the first value of a maximum must reach its gate
    "HarmonicExact-nan": ("HarmonicExact", {},
                          {"l2_distance": _nan_on_call("l2_distance", 2)}, 1),
    "WeakConvergence-nan": ("WeakConvergence", {},
                            {"char_distance": _nan_on_call("char_distance", 3)}, 1),
    "L2MollifiedRate-nan": (
        "L2MollifiedRate", {"eps_ladder": [0.2], "sample_times": [0.01, 0.02]},
        {"l2_distance": _nan_on_call("l2_distance", 2)}, 1),
    "ConcentrationSplit-nan-left": ("ConcentrationSplit", {},
                                    {"_halfplane_weights": _nan_left_weights}, 2),
    "RandomFamily-nan": ("RandomFamily", {},
                         {"weak_distance": _nan_on_call("weak_distance", 2)}, 1),
    "BranchAtlas-nan": ("BranchAtlas", {},
                        {"branch_ode_residual": _nan_on_call(
                            "branch_ode_residual", 2, (np.nan, np.nan))}, 1),
}


@pytest.mark.parametrize("case", sorted(_FAILING))
def test_failed_gates_fail_the_run(tmp_path, monkeypatch, case):
    name, overrides, patches, n_failed = _FAILING[case]
    for attr, factory in patches.items():
        monkeypatch.setattr(experiments, attr, factory())
    cfg = _write_cfg(tmp_path, {"experiment": name, **{**_PINNED, **_SMALL}[name],
                                **overrides})
    assert main(["run", name, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    man = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert man["passed"] is False
    gates = [w for w in man["warnings"] if w.startswith("gate failed: ")]
    assert len(gates) == n_failed, gates


def test_rate_rule_warns_dropped_and_skipped_rungs():
    cfg = defaults_for("ConjectureProbe")
    with _Emitter(cfg) as em:
        fit = em.rate((0.4, 0.2, 0.1, 0.05), (0.8, 0.4, 0.0, 0.1))
        man = em.finish()
    assert fit.dropped == 1
    assert man.warnings == ("rate fit dropped 1 non-positive distance(s)",)
    assert man.records == {"fitted_slope": fit.fitted_slope,
                           "r_squared": fit.r_squared}
    with _Emitter(cfg) as em:
        assert em.rate((0.2, 0.1), (0.4, 0.2)) is None
        man = em.finish()
    assert man.records == {}
    assert man.warnings == (
        "rate fit skipped: rate fit needs >= 3 positive distances, have 2",)
