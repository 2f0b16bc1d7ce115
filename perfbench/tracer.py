"""Per-layer tracing from outside the program.

`Tracer.install` replaces the public functions of each sitecolim module
with wrappers that record a span (id, name, start, end, parent, job) per
call, and it replaces every other binding of the same function object, so
names imported with `from .core import ...` are traced too.  A hook on
`Budget.charge` credits each candidate to the innermost traced call.

Spans of the first traced pass stay in memory until `write_spans`; the
counts and self times of every pass are kept as totals.

Self time is a span's duration minus the time its child spans cover; the
root span of a CLI job is `cli`, so `cli` self time is click dispatch,
report assembly and any untraced helper the command calls directly.
"""

import collections
import functools
import inspect
import sys
import time

# module -> traced public functions (Class.method for methods)
LAYERS = {
    "core": ("enumerate_functors", "enumerate_nat_trans", "compose_functors",
             "equivalence_witness"),
    "cones": ("enumerate_pseudocones", "enumerate_modifications",
              "check_pseudocone", "check_modification", "postcompose_cone",
              "postcompose_cell"),
    "colim": ("build_pseudocolimit", "span_related", "compose_spans",
              "all_spans", "verify_bicolimit", "factor_cone",
              "colim_limit_assignment"),
    "twocat": ("check_2filtered", "check_two_functor",
               "TwoCat.two_cells_between"),
    "limits": ("chosen_limit", "check_exact", "is_limiting_cone"),
    "sites": ("build_colim_site", "verify_site_pseudocolimit", "check_sheaf",
              "check_continuous"),
    "restriction": ("restrict_diagram", "verify_restriction"),
    "fixtures": ("parse",),
}
CLI = "cli"

# exact Budget counts and ratios reported besides calls and self time
COUNTS = ("core.enumerate_functors.candidates",
          "core.enumerate_nat_trans.candidates", "core.candidates",
          "cones.enumerate_pseudocones.candidates")
RATIOS = ("core.equivalence_witness.examined_ratio",
          "cones.enumerate_pseudocones.accept_ratio",
          "colim.span_related.merge_ratio")


def span_names():
    return [CLI] + ["%s.%s" % (m, f) for m, fs in LAYERS.items() for f in fs]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in span_names():
        out[name + ".calls"] = "count"
        out[name + ".self_s"] = "s"
    for module in LAYERS:
        out[module + ".self_s"] = "s"
    out.update((n, "count") for n in COUNTS)
    out.update((n, "ratio") for n in RATIOS)
    out.update({"host.ref_s": "s", "host.wall_batch_s": "s",
                "trace.overhead_s": "s"})
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []  # frames: [id, name, start, child seconds]
        self.next_id = 0
        self.job = None
        self.job_self = collections.defaultdict(float)
        self.last_functor_count = 0
        self.passes_done = 0
        self._reset()

    def _reset(self):
        self.calls = collections.Counter()
        self.candidates = collections.Counter()
        self.events = collections.Counter()
        self.jobs_self = []  # raw self seconds by span name, per job

    # -- spans --------------------------------------------------------------

    def enter(self, name):
        frame = [self.next_id, name, time.perf_counter(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame, call=True):
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, child = frame
        parent = None
        if self.stack:
            self.stack[-1][3] += end - start
            parent = self.stack[-1][0]
        self.job_self[name] += end - start - child
        self.calls[name] += call
        if self.passes_done == 0:
            self.spans.append((span_id, name, start, end, parent, self.job))

    def begin_job(self, job_id, root):
        self.job = job_id
        self.job_self.clear()
        return self.enter(root) if root else None

    def end_job(self, root_frame):
        if root_frame is not None:
            self.exit(root_frame)
        self.jobs_self.append(dict(self.job_self))

    def end_pass(self):
        """The finished pass's raw record; starts the next pass.  Spans are
        kept for the first pass only."""
        record = (self.calls, self.candidates, self.events, self.jobs_self)
        self.passes_done += 1
        self._reset()
        return record

    # -- installation -------------------------------------------------------

    def _wrap(self, name, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if inspect.isgenerator(result):
                return tracer._traced_generator(name, result, observe)
            if observe is not None:
                observe(result, len(result) if hasattr(result, "__len__") else 0)
            return result
        return traced

    def _traced_generator(self, name, gen, observe):
        """A lazy result: each resume is a span of the function (not a new
        call), and the observer sees how many items were drawn."""
        drawn = 0
        try:
            while True:
                frame = self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(frame, call=False)
                drawn += 1
                yield item
        finally:
            gen.close()
            if observe is not None:
                observe(None, drawn)

    def install(self, lib):
        observers = {
            "core.enumerate_functors": self._saw_functors,
            "core.equivalence_witness": self._saw_witness,
            "cones.enumerate_pseudocones": lambda _, n: self.events.update(
                cones_kept=n),
            "colim.span_related": lambda r, _: self.events.update(
                spans_merged=bool(r)),
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "sitecolim" or n.startswith("sitecolim.")]
        for module, names in LAYERS.items():
            mod = getattr(lib, module)
            for fname in names:
                name = "%s.%s" % (module, fname)
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(name, cls.__dict__[meth],
                                                  observers.get(name)))
                    continue
                orig = getattr(mod, fname)
                wrapper = self._wrap(name, orig, observers.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
        charge = lib.core.Budget.charge
        tracer = self

        def counted_charge(budget, n=1):
            if tracer.stack:
                tracer.candidates[tracer.stack[-1][1]] += n
            return charge(budget, n)
        lib.core.Budget.charge = counted_charge

    def _saw_functors(self, _, n):
        self.last_functor_count = n

    def _saw_witness(self, result, _):
        enumerated = self.last_functor_count
        examined = enumerated
        if result.witness is not None:
            examined = int(result.witness[0].name[1:]) + 1
        self.events.update(witness_examined=examined,
                           witness_enumerated=enumerated)

    # -- results ------------------------------------------------------------

    @staticmethod
    def metrics(record, scales):
        """One pass's per-layer figures; `scales` are the jobs' reference
        scale factors, applied to their self times."""
        calls, cand, ev, jobs_self = record
        self_s = collections.defaultdict(float)
        for job, scale in zip(jobs_self, scales):
            for name, secs in job.items():
                self_s[name] += secs * scale
        out = {}
        module_self = collections.defaultdict(float)
        for name in span_names():
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
            module_self[name.split(".")[0]] += self_s[name]
        for module in LAYERS:
            out[module + ".self_s"] = module_self[module]
        out["core.enumerate_functors.candidates"] = cand["core.enumerate_functors"]
        out["core.enumerate_nat_trans.candidates"] = cand["core.enumerate_nat_trans"]
        out["core.candidates"] = sum(v for k, v in cand.items()
                                     if k.startswith("core."))
        pc = cand["cones.enumerate_pseudocones"]
        out["cones.enumerate_pseudocones.candidates"] = pc
        out["core.equivalence_witness.examined_ratio"] = _ratio(
            ev["witness_examined"], ev["witness_enumerated"])
        out["cones.enumerate_pseudocones.accept_ratio"] = _ratio(
            ev["cones_kept"], pc)
        out["colim.span_related.merge_ratio"] = _ratio(
            ev["spans_merged"], calls["colim.span_related"])
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for span in self.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%s\t%s\n" % span)


def _ratio(num, den):
    return num / den if den else 0.0
