"""In-memory span tracer that wraps qball's public functions from outside.

A span is one call of a wrapped function: its name, start, end, the
span that was open when it started (its parent) and the pass it belongs
to.  Spans stay in memory while the benchmark runs and are written out
once at the end.  ``install`` replaces every binding of each traced
function in every qball module namespace (``solve_poisson`` is bound in
``fields``, ``hylomorphy``, ``solver`` and ``dynamics``), so a call is
caught whichever module makes it; ``restore`` puts the originals back.
Nothing under ``src/`` is edited.

Private helpers (``_march``, ``_kick``, ``_constrain_phi``) are not
wrapped: their time shows up as self time of their public parent.
"""

import functools
import os
import time

# span name -> (module, attribute path) of the traced function.  Several
# names may share one span name: the three monitors aggregate under
# ``dynamics.monitors``.
TARGETS = (
    ("potential.check_admissibility", "potential", "check_admissibility"),
    ("potential.hylomorphy_constants", "potential", "hylomorphy_constants"),
    ("fields.functionals", "fields", "functionals"),
    ("fields.solve_poisson", "fields", "solve_poisson"),
    ("fields.laplacian", "fields", "RadialGrid.laplacian"),
    ("fields.save", "fields", "FieldState.save"),
    ("hylomorphy.q_threshold", "hylomorphy", "q_threshold"),
    ("hylomorphy.calibrate_constants", "hylomorphy", "calibrate_constants"),
    ("hylomorphy.ratio_sweep", "hylomorphy", "ratio_sweep"),
    ("hylomorphy.build_test_state", "hylomorphy", "build_test_state"),
    ("hylomorphy.estimate_lambda_star", "hylomorphy", "estimate_lambda_star"),
    ("solver.solve_profile", "solver", "solve_profile"),
    ("solver.shoot_u_given_phi", "solver", "shoot_u_given_phi"),
    ("solver.newton_polish", "solver", "newton_polish"),
    ("solver.solve_phi_given_u", "solver", "solve_phi_given_u"),
    ("solver.minimize_J", "solver", "minimize_J"),
    ("dynamics.evolve", "dynamics", "evolve"),
    ("dynamics.step", "dynamics", "step"),
    ("dynamics.perturb", "dynamics", "perturb"),
    ("dynamics.monitors", "dynamics", "dyn_energy"),
    ("dynamics.monitors", "dynamics", "dyn_charge"),
    ("dynamics.monitors", "dynamics", "orbit_distance"),
    ("cli.main", "cli", "main"),
    ("cli.run", "cli", "run"),
)

MODULES = ("potential", "fields", "hylomorphy", "solver", "dynamics", "cli")
LAYERS = MODULES + ("bench",)

# span record fields
NAME, PARENT, PASS, START, END, OK, EXTRA = range(7)


def _extra_save(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _extra_iters(args, kwargs, result):
    return result.flow_iters or 0


# span name -> hook(args, kwargs, result) returning a number kept in EXTRA
_EXTRAS = {"fields.save": _extra_save, "solver.minimize_J": _extra_iters}


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._restore = []

    def open(self, name):
        rec = [name, self._stack[-1] if self._stack else None, self.pass_id,
               time.perf_counter(), None, True, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def close(self, rec, ok=True):
        rec[END] = time.perf_counter()
        rec[OK] = ok
        self._stack.pop()

    def wrap(self, name, fn):
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(rec, ok=False)
                raise
            self.close(rec)
            if extra is not None:
                rec[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every TARGETS function wherever the package's modules bind it."""
        modules = {m: getattr(package, m) for m in MODULES}
        wrappers = {}
        for name, module, path in TARGETS:
            owner = modules[module]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = vars(owner)[parts[-1]]
            wrapper = self.wrap(name, original)
            wrappers[id(original)] = wrapper
            if len(parts) > 1:      # a method: patch the class only
                self._patch(owner, parts[-1], wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self):
        """Put every original binding back, in reverse order of patching."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def write(self, path):
        """Write every span as one CSV row: id,parent,pass,name,start,end,ok,extra."""
        with open(path, "w") as f:
            f.write("id,parent,pass,name,start,end,ok,extra\n")
            for i, s in enumerate(self.spans):
                parent = "" if s[PARENT] is None else s[PARENT]
                extra = "" if s[EXTRA] is None else s[EXTRA]
                f.write(f"{i},{parent},{s[PASS]},{s[NAME]},{s[START]!r},"
                        f"{s[END]!r},{int(s[OK])},{extra}\n")


def union_length(intervals, lo, hi):
    """Length of the union of [a, b] intervals clipped to [lo, hi]."""
    total = 0.0
    cur_a = cur_b = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans, base=0):
    """Per-span self time: duration minus the union of its children's spans.

    ``spans`` is a slice of a tracer's list that starts at index ``base``
    and holds every child of every span in it.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] is not None and s[PARENT] >= base:
            children[s[PARENT] - base].append((s[START], s[END]))
    return [(s[END] - s[START]) - union_length(kids, s[START], s[END])
            for s, kids in zip(spans, children)]


def layer_metrics(spans, base=0):
    """Per-layer metrics of one pass, from the slice of spans it recorded."""
    names = {name for name, _, _ in TARGETS}
    out = {}
    for name in names:
        out[name + ".s"] = 0.0
        out[name + ".calls"] = 0
    for layer in LAYERS:
        out[layer + ".self_s"] = 0.0
    out["dynamics.step.self_s"] = 0.0
    out["fields.save.bytes"] = 0
    out["solver.minimize_J.iters"] = 0
    solves = solves_ok = 0
    probes = 0
    in_threshold = [False] * len(spans)
    for i, (s, self_s) in enumerate(zip(spans, self_times(spans, base))):
        name = s[NAME]
        parent = s[PARENT]
        in_threshold[i] = (name == "hylomorphy.q_threshold"
                           or (parent is not None and parent >= base
                               and in_threshold[parent - base]))
        out[name.split(".")[0] + ".self_s"] += self_s
        if name not in names:
            continue
        out[name + ".s"] += s[END] - s[START]
        out[name + ".calls"] += 1
        if name == "dynamics.step":
            out["dynamics.step.self_s"] += self_s
        elif name == "fields.save":
            out["fields.save.bytes"] += s[EXTRA] or 0
        elif name == "solver.minimize_J":
            out["solver.minimize_J.iters"] += s[EXTRA] or 0
        elif name == "hylomorphy.estimate_lambda_star" and in_threshold[i]:
            probes += 1
        if name in ("solver.solve_profile", "solver.minimize_J"):
            solves += 1
            solves_ok += s[OK]
    thresholds = out["hylomorphy.q_threshold.calls"]
    out["hylomorphy.probes_per_threshold"] = (
        probes / thresholds if thresholds else 0.0)
    out["solver.ok_ratio"] = solves_ok / solves if solves else 1.0
    return out
