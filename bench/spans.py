"""Layer tracing from outside the tumorlab package.

A Tracer replaces the module-level names each consumer module binds with
``from .x import f`` (and a few class attributes) by wrappers that record a
span per call: name, start, end and the enclosing span.  Spans are appended
to flat arrays in memory and written out once, when the run ends.  Self time
of a span is its duration minus the time covered by its child spans; it is
accumulated per layer name as the spans close.

Some wrappers only count (Newton attempts, banded solves, right-hand-side
evaluations), because a span there would take time away from the layer that
owns the work.  ``uninstall`` puts every original back, so an untraced pass
in the same process runs the unmodified package.
"""

import time
from array import array

import numpy as np

import tumorlab.experiments as experiments
import tumorlab.grid as grid
import tumorlab.kinetics as kinetics
import tumorlab.linearized as linearized
import tumorlab.nutrient as nutrient
import tumorlab.simmaps as simmaps
import tumorlab.stationary as stationary
import tumorlab.transport as transport
import tumorlab.velocity as velocity
from tumorlab.errors import SolverError

MIB = float(2 ** 20)

#: per-layer metric -> (unit, better, end-to-end timings it should move)
LAYER_METRICS = {
    "kinetics.eval_rates.calls": ("count", "lower", "stationary_s stationary_saturating_s setup_s(evolve,frozen)"),
    "kinetics.eval_rates.self_s": ("s", "lower", "stationary_s stationary_saturating_s setup_s(evolve,frozen)"),
    "grid.field_eval.calls": ("count", "lower", "stationary_s stability_s picard_s"),
    "grid.field_eval.self_s": ("s", "lower", "stationary_s stability_s picard_s"),
    "grid.radial_average.calls": ("count", "lower", "stability_s picard_s"),
    "grid.radial_average.self_s": ("s", "lower", "stability_s picard_s"),
    "grid.pchip_build.calls": ("count", "lower", "picard_s ensemble_s"),
    "grid.pchip_build.self_s": ("s", "lower", "picard_s ensemble_s"),
    "nutrient.solve.calls": ("count", "lower", "picard_s stability_s stationary_s"),
    "nutrient.solve.self_s": ("s", "lower", "picard_s stability_s stationary_s"),
    "nutrient.attempts": ("count", "lower", "picard_s stability_s stationary_s"),
    "nutrient.fallbacks": ("count", "lower", "picard_s stability_s stationary_s"),
    "nutrient.banded_solves": ("count", "lower", "picard_s stability_s stationary_s"),
    "velocity.radial_velocity.calls": ("count", "lower", "stationary_s"),
    "velocity.radial_velocity.self_s": ("s", "lower", "stationary_s"),
    "stationary.shoot.calls": ("count", "lower", "stationary_s stationary_saturating_s setup_s(evolve,frozen)"),
    "stationary.shoot.self_s": ("s", "lower", "stationary_s stationary_saturating_s setup_s(evolve,frozen)"),
    "stationary.shoot.incomplete": ("count", "lower", "stationary_s stationary_saturating_s setup_s(evolve,frozen)"),
    "stationary.rhs_evals": ("count", "lower", "stationary_s stationary_saturating_s setup_s(evolve,frozen)"),
    "transport.step.calls": ("count", "lower", "stability_s picard_s"),
    "transport.stage.calls": ("count", "lower", "stability_s picard_s"),
    "transport.stage.self_s": ("s", "lower", "stability_s picard_s"),
    "transport.regrid.calls": ("count", "lower", "stability_s picard_s"),
    "transport.nutrient_cache.lookups": ("count", "lower", "picard_s"),
    "transport.nutrient_cache.hit_ratio": ("ratio", "higher", "picard_s"),
    "transport.picard.iterations": ("count", "lower", "picard_s"),
    "transport.picard.self_s": ("s", "lower", "picard_s"),
    "linearized.propagator_build.self_s": ("s", "lower", "ensemble_s peak_rss_mb(frozen)"),
    "linearized.cycle_len": ("count", "higher", "ensemble_s peak_rss_mb(frozen)"),
    "linearized.run.self_s": ("s", "lower", "ensemble_s peak_rss_mb(frozen)"),
    "linearized.stage.calls": ("count", "lower", "ensemble_s peak_rss_mb(frozen)"),
    "linearized.fit.calls": ("count", "lower", "ensemble_s peak_rss_mb(frozen)"),
    "linearized.fit.self_s": ("s", "lower", "ensemble_s peak_rss_mb(frozen)"),
    "linearized.snapshot_mb": ("MiB", "lower", "ensemble_s peak_rss_mb(frozen)"),
    "simmaps.flow_ivp.calls": ("count", "lower", "map_bounds_s"),
    "simmaps.flow_ivp.nfev": ("count", "lower", "map_bounds_s"),
    "simmaps.flow_ivp.self_s": ("s", "lower", "map_bounds_s"),
    "simmaps.psi.flow_solves": ("count", "lower", "map_bounds_s"),
    "simmaps.travel_time.calls": ("count", "lower", "map_bounds_s"),
    "simmaps.travel_time.self_s": ("s", "lower", "map_bounds_s"),
    "experiments.stability.self_s": ("s", "lower", "stability_s"),
    "experiments.report_bytes": ("B", "lower", "stability_s"),
    "trace.spans": ("count", "lower", ""),
    "trace.overhead_ratio": ("ratio", "lower", ""),
}

#: counts that must be zero in a workload's body (the layers it bypasses),
#: and counts that must be positive (the layers it was chosen to exercise).
#: linearized.fit is left out of evolve's zero set: the stability experiment
#: fits its decay envelopes with linearized.fit_decay by design.
BYPASS = {
    "shoot": {
        "zero": ["transport.step.calls", "transport.stage.calls",
                 "transport.regrid.calls", "transport.nutrient_cache.lookups",
                 "transport.picard.iterations", "linearized.stage.calls",
                 "linearized.fit.calls", "linearized.propagator_build.calls",
                 "simmaps.flow_ivp.calls", "simmaps.travel_time.calls"],
        "positive": ["stationary.shoot.calls", "stationary.rhs_evals",
                     "kinetics.eval_rates.calls", "grid.field_eval.calls",
                     "nutrient.solve.calls"],
    },
    "evolve": {
        "zero": ["linearized.propagator_build.calls", "linearized.stage.calls",
                 "simmaps.flow_ivp.calls", "simmaps.travel_time.calls",
                 "stationary.shoot.calls"],
        "positive": ["transport.stage.calls", "transport.picard.iterations",
                     "transport.nutrient_cache.lookups", "nutrient.solve.calls",
                     "grid.radial_average.calls"],
    },
    "frozen": {
        "zero": ["nutrient.solve.calls", "transport.stage.calls",
                 "transport.step.calls", "stationary.shoot.calls"],
        "positive": ["linearized.stage.calls", "linearized.fit.calls",
                     "simmaps.flow_ivp.calls", "simmaps.travel_time.calls"],
    },
}


class Tracer:
    """In-memory span recorder with per-layer call, time and self-time sums."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_phase = array("B")
        self.phase = 0
        self.stats = {}      # layer name -> [calls, total_s, self_s]
        self.counters = {}   # counter name -> value
        self.phase_totals = []
        self._stack = []     # open spans: [index, child_s]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def spanned(self, name, fn, after=None, error=None):
        """Wrap fn so each call records a span under name.

        after(args, result) and error(args, exc) run outside the span.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stat = self.stat(name)
        stack = self._stack
        clock = time.perf_counter
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, phases = self.span_parent, self.span_phase

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            phases.append(self.phase)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(frame, t0, stat)
                if error is not None:
                    error(args, exc)
                raise
            self._close(frame, t0, stat)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _close(self, frame, t0, stat):
        t1 = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = t1 - t0
        self.span_end[frame[0]] = t1
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - frame[1]
        if stack:
            stack[-1][1] += duration

    def counted(self, name, fn, amount=None):
        """Wrap fn so each call adds 1 (or amount(result)) to a counter."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(name, 1 if amount is None else amount(result))
            return result

        return wrapper

    def start_phase(self):
        """Close the current phase (set-up) and start counting the next.

        Sums of the closed phase are kept in phase_totals; spans keep their
        phase number, so the span file separates the phases too.
        """
        self.phase_totals.append(self.totals())
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.counters = {}
        self.phase += 1

    def totals(self):
        out = {f"{k}.calls": v[0] for k, v in self.stats.items()}
        out.update({f"{k}.total_s": v[1] for k, v in self.stats.items()})
        out.update({f"{k}.self_s": v[2] for k, v in self.stats.items()})
        out.update(self.counters)
        return out

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_all(self, owners, attr, value):
        for owner in owners:
            self._patch(owner, attr, value)

    def install(self):
        """Wrap every layer boundary the benchmark measures."""
        sp = self.spanned

        self._patch_all(
            (kinetics, stationary, transport, linearized, nutrient, velocity),
            "eval_rates", sp("kinetics.eval_rates", kinetics.eval_rates))
        self._patch(grid.RadialField, "__call__",
                    sp("grid.field_eval", grid.RadialField.__call__))
        self._patch_all((grid, transport, linearized, velocity), "radial_average",
                        sp("grid.radial_average", grid.radial_average))
        self._patch_all((grid, transport, linearized), "PchipInterpolator",
                        sp("grid.pchip_build", grid.PchipInterpolator))

        # nutrient: a solve that needs more than one Newton attempt fell
        # back to continuation in z
        self._patch(nutrient, "_solve_at",
                    self.counted("nutrient.attempts", nutrient._solve_at))
        self._patch(nutrient, "solve_banded",
                    self.counted("nutrient.banded_solves", nutrient.solve_banded))
        attempts_before = []

        def solve_nutrient(*args, **kwargs):
            attempts_before.append(self.counters.get("nutrient.attempts", 0))
            try:
                return inner(*args, **kwargs)
            finally:
                used = self.counters.get("nutrient.attempts", 0) - attempts_before.pop()
                if used > 1:
                    self.count("nutrient.fallbacks")

        inner = sp("nutrient.solve", nutrient.solve_nutrient)
        self._patch_all((nutrient, stationary, transport), "solve_nutrient",
                        solve_nutrient)

        self._patch(stationary, "radial_velocity",
                    sp("velocity.radial_velocity", stationary.radial_velocity))

        # stationary: solve_ivp stays inside the shooting span (DOP853 and
        # the scalar right-hand side are the layer's own work); only nfev
        # is taken from its result
        self._patch_all((stationary, experiments), "solve_stationary",
                        sp("stationary.solve", stationary.solve_stationary))
        self._patch(stationary, "integrate_profile", sp(
            "stationary.shoot", stationary.integrate_profile,
            after=lambda a, r: r[0] is None and self.count("stationary.shoot.incomplete"),
            error=lambda a, e: isinstance(e, SolverError)
            and self.count("stationary.shoot.incomplete")))
        self._patch(stationary, "solve_ivp", self.counted(
            "stationary.rhs_evals", stationary.solve_ivp, lambda r: int(r.nfev)))

        # transport
        self._patch_all((transport, experiments), "simulate",
                        sp("transport.simulate", transport.simulate))
        self._patch(transport, "_rk4", sp("transport.step", transport._rk4))
        self._patch(transport, "_stage_rates",
                    sp("transport.stage", transport._stage_rates))
        self._patch(transport, "regrid", sp("transport.regrid", transport.regrid))
        cache_solve = sp("transport.nutrient_cache", transport.NutrientCache.solve)

        def cache_lookup(cache, z):
            before = self.stats["nutrient.solve"][0]
            result = cache_solve(cache, z)
            if self.stats["nutrient.solve"][0] == before:
                self.count("transport.nutrient_cache.hits")
            return result

        self._patch(transport.NutrientCache, "solve", cache_lookup)

        def picard_done(args, result):
            # picard_solve inlines its RK4 loop; its steps and stages are
            # counted from the iteration count it returns
            t_end, dt = args[1:3]
            iterations = len(result[1])
            steps = iterations * int(round(t_end / dt))
            self.count("transport.picard.iterations", iterations)
            self.count("transport.picard.steps", steps)

        self._patch_all((transport, experiments), "picard_solve", sp(
            "transport.picard", transport.picard_solve, after=picard_done))

        # linearized
        lp = linearized.LinearPropagator
        self._patch(lp, "__init__", sp(
            "linearized.propagator_build", lp.__init__,
            after=lambda a, r: self.counters.__setitem__(
                "linearized.cycle_len", a[0].cycle_len)))
        self._patch(lp, "run", sp(
            "linearized.run", lp.run,
            after=lambda a, r: self.count(
                "linearized.snapshot_mb", sum(x.nbytes for x in r) / MIB)))
        self._patch(lp, "_stage_rate", sp("linearized.stage", lp._stage_rate))
        self._patch_all((linearized, experiments), "fit_decay",
                        sp("linearized.fit", linearized.fit_decay))
        self._patch(linearized, "decay_ensemble",
                    sp("linearized.ensemble", linearized.decay_ensemble))

        # simmaps
        self._patch(simmaps, "solve_ivp", sp(
            "simmaps.flow_ivp", simmaps.solve_ivp,
            after=lambda a, r: self.count("simmaps.flow_ivp.nfev", int(r.nfev))))
        psi = sp("simmaps.psi", simmaps.psi)

        def psi_counted(*args, **kwargs):
            before = self.stats["simmaps.flow_ivp"][0]
            try:
                return psi(*args, **kwargs)
            finally:
                self.count("simmaps.psi.flow_solves",
                           self.stats["simmaps.flow_ivp"][0] - before)

        self._patch(simmaps, "psi", psi_counted)
        for attr in ("fstar", "finv"):
            self._patch(simmaps.FStarTable, attr, sp(
                "simmaps.travel_time", getattr(simmaps.FStarTable, attr)))
        self._patch(simmaps, "check_map_bounds",
                    sp("simmaps.check", simmaps.check_map_bounds))

        # experiments
        self._patch(experiments, "run_stability_experiment", sp(
            "experiments.stability", experiments.run_stability_experiment))
        self._patch(experiments, "emit_report", sp(
            "experiments.report", experiments.emit_report,
            after=lambda a, r: self.count(
                "experiments.report_bytes", sum(p.stat().st_size for p in r))))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, totals):
        """The per-layer metrics of LAYER_METRICS from one phase's totals."""
        def get(key):
            return totals.get(key, 0)

        lookups = get("transport.nutrient_cache.calls")
        out = {}
        for name in LAYER_METRICS:
            if name.startswith("trace."):
                continue
            out[name] = get(name)
        out["transport.step.calls"] = get("transport.step.calls") + get("transport.picard.steps")
        out["transport.stage.calls"] = get("transport.stage.calls") + 4 * get("transport.picard.steps")
        out["transport.nutrient_cache.lookups"] = lookups
        out["transport.nutrient_cache.hit_ratio"] = (
            get("transport.nutrient_cache.hits") / lookups if lookups else 0.0)
        out["linearized.propagator_build.calls"] = get("linearized.propagator_build.calls")
        return out

    def counts_by_top(self, phase):
        """Span counts of one phase grouped by their outermost span's name,
        e.g. the nutrient solves made inside transport.picard."""
        name = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        top = np.where(parent < 0, np.arange(parent.size), parent)
        while True:  # pointer jumping: parents precede their children
            nxt = np.where(parent[top] < 0, top, top[top])
            if np.array_equal(nxt, top):
                break
            top = nxt
        mine = np.frombuffer(self.span_phase, dtype=np.uint8) == phase
        pairs, counts = np.unique(
            name[top[mine]].astype(np.int64) * 65536 + name[mine], return_counts=True)
        out = {}
        for pair, count in zip(pairs, counts):
            t, n = divmod(int(pair), 65536)
            out.setdefault(self.names[t], {})[self.names[n]] = int(count)
        return out

    def write(self, path):
        """Write every span (name id, start, end, parent index, phase)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            phase=np.frombuffer(self.span_phase, dtype=np.uint8),
        )


def check_bypass(workload, metrics):
    """Failed bypass predictions for a workload's body metrics, as messages."""
    rules = BYPASS[workload]
    bad = [f"{k} = {metrics[k]} (predicted 0)" for k in rules["zero"] if metrics[k] != 0]
    bad += [f"{k} = {metrics[k]} (predicted > 0)" for k in rules["positive"] if not metrics[k] > 0]
    return bad
