"""The three closed-loop workloads, their inputs, correctness gates and digests.

Each workload runs *rounds* back to back; a round is a fixed amount of work.
A *task* is the unit counted by ``ok_frac`` and ``ok_per_s``: one multistart
seed on ``ladder`` and ``floor``, one steer or one lifted sample on
``steer_lift``.  Timed samples (``task_cpu``) are CPU seconds of the thread
that ran them: one seed solve, or one *steer set*, a steer on each of the
four steering systems.  Per-system steer costs differ fourfold, so single
steers pool into a multimodal distribution whose median jumps between modes.
An *operation* is one public call; it fails when it raises where the library
promises a result, or when its output fails the correctness gate.

Why these workloads:

* ``ladder`` is the criterion-7 multistart (Heisenberg vertical fiber, p = 2,
  m = 64, default options, two worker threads) on its first eight seeds.  It
  loads the KKT/GMRES solver, the differential with its fundamental matrix
  and the field Jacobians, and carries the heavy tail: seed 5 exhausts GMRES.
* ``floor`` is the criterion-5 energy-floor search on agrachev_lee(3): drift,
  n = 2, short signals, serial, and most seeds fail, so feasibilization and
  line-search waste dominate.  A change to the worker pool should not move it.
* ``steer_lift`` steers random nearby pairs through commutator charts on
  four systems (one with drift) and lifts random arcs.  It never calls the
  differential or the geodesic solver, so a solver change should not move it.

The two multistart workloads use the acceptance seeds whatever the workload
seed.  Their cost is heavy-tailed and chaotic in the inputs: with fresh seed
draws, the median seed time of five 20-25 s ladder runs ranged from 1.07 to
1.72 s, single seeds took 7-30 s, and moving s from 0.1 to 0.099 took one
16-seed floor search from 7.2 s to 12.2 s.  A run short enough for this benchmark cannot
average over such draws, so the workload seed drives steer_lift only.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np


@dataclass
class Round:
    wall: float = 0.0
    speed: float = 1.0  # NOMINAL_S over the median reference slice (speed.py)
    tasks: int = 0
    ok: int = 0
    ops: int = 0
    ops_failed: int = 0
    # CPU seconds per timed sample, with its wall-clock start and end while running
    task_cpu: list = field(default_factory=list)
    outputs: list = field(default_factory=list)  # what the gate checks afterwards
    digest_parts: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def round_seed(seed: int, r: int) -> int:
    """Deterministic 32-bit seed for round r of a run seeded with seed."""
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def record_ok(h, system, x, y, rec, substeps) -> str | None:
    """Independent re-check of one converged record; None when it passes.

    The endpoint and the stationarity residual are recomputed through the
    public API, not read back from the record.
    """
    end = h.endpoint(system, x, rec.control, substeps=substeps)
    end_res = float(np.linalg.norm(h.displacement(system, end, y)))
    if not end_res <= 1e-6:
        return f"seed {rec.seed_index}: endpoint residual {end_res:.2e} > 1e-6"
    stat = h.lagrange_residual(system, x, y, rec.control, rec.lam, rec.p, rec.mode, substeps)
    rel = stat / rec.stationarity_scale
    if not rel <= 1e-6:
        return f"seed {rec.seed_index}: relative stationarity {rel:.2e} > 1e-6"
    return None


def failure_kind(reason: str) -> str:
    if reason == "not converged":
        return "not_converged"
    if reason.startswith("DomainEscapeError"):
        return "domain_escape"
    return "other"


class _Multistart:
    """Shared shape of the two multistart workloads."""

    seeds_per_call: int
    workers: int

    def round_calls(self, r):
        """(target, multistart keyword arguments) for each call of round r."""
        raise NotImplementedError

    def run_round(self, r) -> Round:
        rnd = Round(notes={"failed": {"not_converged": 0, "domain_escape": 0, "other": 0}})
        t0 = perf_counter()
        for y, kwargs in self.round_calls(r):
            rep = self.h.multistart(self.system, self.x, y, p=2.0, n_seeds=self.seeds_per_call,
                                    workers=self.workers, **kwargs)
            rnd.tasks += self.seeds_per_call
            rnd.ok += self.seeds_per_call - len(rep.failed_seeds)
            rnd.ops += 1
            rnd.outputs.append((y, rep))
            rnd.digest_parts.append(rep.to_json())
            for f in rep.failed_seeds:
                rnd.notes["failed"][failure_kind(f["reason"])] += 1
        rnd.wall = perf_counter() - t0
        return rnd

    def check_records(self, rounds):
        errors = []
        for rnd in rounds:
            for y, rep in rnd.outputs:
                for rec in rep.records:
                    err = record_ok(self.h, self.system, self.x, y, rec, self.substeps)
                    if err:
                        errors.append(err)
        return errors


class Ladder(_Multistart):
    """Criterion-7 multistart on the Heisenberg vertical fiber."""

    seeds_per_call = 8
    min_rounds = 1
    rng_seed = 0  # criterion 7
    workers = 2
    substeps = 2  # GeodesicOptions default
    traced_layers = ("systems.field_jacobians", "systems.dynamics_jacobian", "endpoint.integrate",
                     "endpoint.differential", "geodesics.gmres", "geodesics.solve_critical",
                     "geodesics.multistart")

    def __init__(self, h, seed, root: Path):
        self.h = h
        self.system = h.catalog_load("heisenberg")
        self.x = np.zeros(3)
        self.y = np.array([0.0, 0.0, 0.5])
        oracle = json.loads((root / "tests" / "data" / "heisenberg_shooting.json").read_text())
        self.oracle = sorted(rec["energy"] for rec in oracle["records"])
        _first_evaluation(self.system)

    def warm_up(self):
        self.h.multistart(self.system, self.x, self.y, p=2.0, n_seeds=1, rng_seed=0,
                          m_seed=8, workers=1)

    def round_calls(self, r):
        return [(self.y, {"rng_seed": self.rng_seed, "m_seed": 64})]

    def clusters(self, rounds):
        energies = sorted(rec.energy for rnd in rounds for _, rep in rnd.outputs
                          for rec in rep.records)
        levels = []
        for e in energies:
            if not levels or e > levels[-1][-1] * (1.0 + 1e-2):
                levels.append([e])
            else:
                levels[-1].append(e)
        return [lv[0] for lv in levels]

    def check(self, rounds):
        errors = self.check_records(rounds)
        levels = self.clusters(rounds)
        if not levels:
            errors.append("no converged seed in the whole run")
            return errors, {"clusters": 0}
        if abs(levels[0] - self.oracle[0]) > 1e-2 * self.oracle[0]:
            errors.append(f"lowest cluster {levels[0]:.5f} misses oracle {self.oracle[0]:.5f} by >1%")
        for e in levels:
            if e <= 1.01 * self.oracle[-1]:
                near = min(self.oracle, key=lambda o: abs(o - e))
                if abs(e - near) > 1e-2 * near:
                    errors.append(f"cluster {e:.5f} is not within 1% of any oracle level")
        return errors, {"clusters": len(levels), "levels": [round(e, 6) for e in levels]}


class Floor(_Multistart):
    """Criterion-5 energy-floor search on agrachev_lee(3) over (0, -s)."""

    seeds_per_call = 16
    min_rounds = 1
    workers = 1
    substeps = 2
    traced_layers = Ladder.traced_layers
    levels = (0.1, 0.07)  # a round is one descending sweep of criterion-5 searches
    rng_seed = 3  # criterion 5

    def __init__(self, h, seed, root: Path):
        self.h = h
        self.system = h.catalog_load("agrachev_lee(3)")
        self.x = np.zeros(2)
        self.opts = h.GeodesicOptions(raise_on_failure=False, feas_iter=60, max_iter=60)
        _first_evaluation(self.system)

    def warm_up(self):
        self.h.multistart(self.system, self.x, [0.0, -0.1], p=2.0, n_seeds=1, rng_seed=0,
                          m_seed=8, workers=1, seed_scale=1.0,
                          opts=self.h.GeodesicOptions(raise_on_failure=False, feas_iter=5,
                                                      max_iter=5))

    def round_calls(self, r):
        return [(np.array([0.0, -s]), {"rng_seed": self.rng_seed, "m_seed": 24,
                                       "opts": self.opts, "seed_scale": 1.0})
                for s in self.levels]

    def floors(self, rounds):
        out = {}
        for rnd in rounds:
            for y, rep in rnd.outputs:
                for rec in rep.records:
                    s = float(-y[1])
                    out[s] = min(out.get(s, math.inf), rec.energy)
        return out

    def check(self, rounds):
        errors = self.check_records(rounds)
        floors = self.floors(rounds)
        ref = floors.get(self.levels[0])
        if ref is not None:
            for s, e in floors.items():
                if e < 0.5 * ref:
                    errors.append(f"floor {e:.5f} at s={s} is below half the s=0.1 floor {ref:.5f}")
        return errors, {"floors": {str(s): round(e, 6) for s, e in sorted(floors.items())},
                        "floor_reference": ref is not None}


class SteerLift:
    """Random nearby steers on four systems, then random arc lifts."""

    work_time = staticmethod(thread_time)  # the worker swaps in the probe's clock

    steer_sets = 6  # per round
    min_rounds = 2
    lift_samples = (2, 4)
    traced_layers = ("systems.field_values", "signals.concatenate_rescaled", "endpoint.integrate",
                     "steering.cross_section", "steering.cross_section_drift",
                     "steering.build_chart", "steering.solve_chart_coordinates",
                     "steering.compose", "lifting.lift_path")

    def __init__(self, h, seed, root: Path):
        import sympy as sp

        self.h, self.seed = h, seed
        heis = h.catalog_load("heisenberg")
        x0, x1, x2 = h.state_symbols(3)
        drift = h.SymbolicField([sp.Float(0), sp.Float(0), sp.Rational(1, 10) * x0],
                                coords=(x0, x1, x2))
        self.heis = heis
        self.systems = [
            ("heisenberg", heis),
            ("unicycle", h.catalog_load("unicycle")),
            ("martinet", h.catalog_load("martinet")),
            ("heis_drift", h.ControlSystem("heis_drift", heis.fields, drift=drift)),
        ]
        self.anchor = h.ControlSignal(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
        base = np.zeros(3)
        for _, system in self.systems:
            _first_evaluation(system)
            if system.is_driftless:
                h.build_chart(system, base)  # bracket words up to depth 3 (martinet)
            else:
                h.bracket_frame(system, base)
                h.check_admissibility(system, base, 1.5)
                h.build_chart(system, base, max_depth=2)

    def _steer(self, system, x, y):
        if system.is_driftless:
            return self.h.cross_section(system, x, y)
        return self.h.cross_section_drift(system, x, y, p=1.5)

    def warm_up(self):
        rng = np.random.default_rng(0)
        for _, system in self.systems:
            x = 0.1 * rng.normal(size=3)
            try:
                self._steer(system, x, x + np.array([0.01, 0.0, 0.0]))
            except self.h.ChartRadiusError:
                pass
        path = self.h.TargetPath.from_function(lambda s: np.array([1.0, 0.1 * s, 0.0]), [0.0, 1.0])
        self.h.lift_path(self.heis, np.zeros(3), self.anchor, path)

    def run_round(self, r) -> Round:
        h = self.h
        rng = np.random.default_rng(round_seed(self.seed, r))
        rnd = Round()
        t0 = perf_counter()
        refusals = 0
        for j in range(self.steer_sets):
            # one steer on each system per set; set j draws its spacing from
            # the j-th of steer_sets equal strata of [0.02, 0.1]
            set_start, set_wall = self.work_time(), perf_counter()
            for name, system in self.systems:
                x = 0.3 * rng.normal(size=3)
                v = rng.normal(size=3)
                spacing = 0.02 + 0.08 * (j + rng.random()) / self.steer_sets
                y = x + spacing * v / np.linalg.norm(v)
                rnd.tasks += 1
                rnd.ops += 1
                try:
                    plan = self._steer(system, x, y)
                except h.ChartRadiusError:
                    # the documented refusal of a target outside the chart's
                    # working radius: an unsuccessful task, not a failed call
                    refusals += 1
                    rnd.digest_parts.append(f"{name} refused")
                    continue
                except h.HorizonError as exc:
                    rnd.ops_failed += 1
                    rnd.notes.setdefault("errors", []).append(f"{name}: {type(exc).__name__}")
                    continue
                rnd.ok += 1
                rnd.outputs.append(("plan", system, (x, y, plan)))
                rnd.digest_parts.append(plan.to_json())
            rnd.task_cpu.append((self.work_time() - set_start, set_wall, perf_counter()))
        for K in self.lift_samples:
            omega, climb = rng.uniform(0.3, 0.5), rng.uniform(0.05, 0.15)
            path = h.TargetPath.from_function(
                lambda s: np.array([np.cos(omega * s), np.sin(omega * s), climb * s]),
                np.linspace(0.0, 1.0, K + 1),
            )
            rnd.tasks += K
            rnd.ops += 1
            try:
                res = h.lift_path(self.heis, np.zeros(3), self.anchor, path)
            except h.HorizonError as exc:
                rnd.ops_failed += 1
                rnd.notes.setdefault("errors", []).append(f"lift K={K}: {type(exc).__name__}")
                continue
            rnd.ok += K
            rnd.outputs.append(("lift", self.heis, (path, res)))
            rnd.digest_parts.append(repr([float(m) for m in res.moduli()]))
        rnd.wall = perf_counter() - t0
        rnd.notes["refusals"] = refusals
        return rnd

    def check(self, rounds):
        h = self.h
        errors = []
        worst_plan = worst_lift = 0.0
        for rnd in rounds:
            for kind, system, item in rnd.outputs:
                if kind == "plan":
                    x, y, plan = item
                    end = h.endpoint(system, x, plan.sigma, substeps=16)
                    res = float(np.linalg.norm(h.displacement(system, end, y)))
                    worst_plan = max(worst_plan, res)
                    if not res <= 1e-6:
                        errors.append(f"{system.name}: plan residual {res:.2e} > 1e-6")
                else:
                    path, lift = item
                    for k, u in enumerate(lift.controls):
                        end = h.endpoint(system, np.zeros(3), u, substeps=64)
                        res = float(np.linalg.norm(h.displacement(system, end, path.targets[k])))
                        worst_lift = max(worst_lift, res)
                        if not res <= 1e-6:
                            errors.append(f"lift sample {k}: residual {res:.2e} > 1e-6")
        return errors, {"worst_plan_residual": worst_plan, "worst_lift_residual": worst_lift,
                        "chart_refusals": sum(rnd.notes["refusals"] for rnd in rounds)}


def _first_evaluation(system):
    """Compile and call every lambdified stack the workloads evaluate."""
    pt = np.full(system.n, 0.1)
    system.field_values(pt)
    system.field_jacobians(pt)
    system.field_values_batch(pt[None, :])


def digest(rounds, count: int) -> str:
    """sha256 over the deterministic outputs of the first `count` rounds."""
    hsh = hashlib.sha256()
    for rnd in rounds[:count]:
        for part in rnd.digest_parts:
            hsh.update(part.encode())
    return hsh.hexdigest()[:16]


WORKLOADS = {"ladder": Ladder, "floor": Floor, "steer_lift": SteerLift}
