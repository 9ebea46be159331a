"""Span recorder for the traced run, kept entirely in the benchmark's files.

``SpanRecorder.install`` swaps every public function of the eight abssep
modules for a timing wrapper. Callers inside the package reach other
modules' functions through the module attribute, and a module's own
functions through its globals, which are the module attribute too, so the
wrappers see every call. Spans (name, start, end, parent, op id) stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time

MODULES = ("matcore", "bipartite", "posmaps", "absppt", "witness", "sdpsolve", "families", "cli")

# Functions whose .calls and .self_s metrics are reported, the kernels the
# planned rewrites touch first. With the eight module totals, the three
# derived counts and the two tracing figures this stays within 128 metrics.
FUNCTIONS = (
    "matcore.eigvalsh", "matcore.eigh", "matcore.is_psd", "matcore.singular_values",
    "matcore.schatten_norm", "matcore.hermitize", "matcore.as_complex_matrix",
    "bipartite.realign_trace_norm", "bipartite.realign", "bipartite.haar_unitary",
    "bipartite.rng_stream", "bipartite.partial_transpose", "bipartite.partial_trace",
    "bipartite.max_entangled_projector", "bipartite.kron",
    "posmaps.apply_id_tensor", "posmaps.apply", "posmaps.choi_matrix", "posmaps.dual_map",
    "posmaps.generalized_choi_map", "posmaps.is_positive_bc", "posmaps.is_indecomposable_bc",
    "posmaps.is_exposed_bc",
    "absppt.sample_abs_ppt_spectrum", "absppt.is_abs_ppt", "absppt.lmi_min_eigenvalues",
    "absppt.build_lmis",
    "witness.detection_threshold", "witness.detection_dual_certificate",
    "witness.verify_detection_certificate",
    "sdpsolve.solve", "sdpsolve.min_witness_problem", "sdpsolve.max_eig_problem",
    "sdpsolve.diamond_norm_problem", "sdpsolve.scalar_inequality",
    "sdpsolve.diamond_certificate", "sdpsolve.verify_diamond_certificate",
    "sdpsolve.max_eig_certificate", "sdpsolve.verify_max_eig_certificate",
    "families.upb_classify", "families.upb_lmi_matrix", "families.werner_classify",
    "families.werner_spectrum", "families.isotropic_classify", "families.isotropic_spectrum",
    "families.upb_spectrum",
    "cli.main", "cli.build_parser", "cli.cmd_orbit_scan", "cli.cmd_verify_certificates",
    "cli.cmd_fig_data", "cli.cmd_check_spectrum", "cli.cmd_family",
)

DERIVED = (
    ("sdpsolve.newton_steps", "count"),
    ("absppt.lmi_evals_per_sample", "count"),
    ("posmaps.choi_matrix.per_certificate", "count"),
)
TRACE_FIGURES = (("trace.overhead_ratio", "ratio"), ("trace.spans", "count"))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = [(f"{mod}.self_s", "s") for mod in MODULES]
    for fn in FUNCTIONS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]
    return out + list(DERIVED) + list(TRACE_FIGURES)


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.newton: dict[int, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"abssep.{short}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self._originals.append((mod, name, fn))
                setattr(mod, name, self._wrap(f"{short}.{name}", fn))

    def uninstall(self) -> None:
        for mod, name, fn in self._originals:
            setattr(mod, name, fn)
        self._originals.clear()

    def _wrap(self, qualname: str, fn):
        names, starts, ends, parents, ops, stack = (
            self.names, self.starts, self.ends, self.parents, self.ops, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(qualname)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            steps = getattr(result, "newton_steps", None)
            if steps is not None:
                self.newton[idx] = int(steps)
            return result

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", newline="\n") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["id", "name", "start_s", "end_s", "parent", "op"])
            t0 = self.starts[0] if self.starts else 0.0
            for i, name in enumerate(self.names):
                out.writerow([i, name, f"{self.starts[i] - t0:.9f}", f"{self.ends[i] - t0:.9f}",
                              self.parents[i], self.ops[i]])

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round (every traced round is the same work)."""
        n = len(self.names)
        self_time = [self.ends[i] - self.starts[i] for i in range(n)]
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                self_time[p] -= self.ends[i] - self.starts[i]
        mod_self = dict.fromkeys(MODULES, 0.0)
        fn_calls: dict[str, int] = {}
        fn_self: dict[str, float] = {}
        # spans are appended in start order, so a parent precedes its children
        in_sampler = [False] * n
        in_certify = [False] * n
        for i, name in enumerate(self.names):
            p = self.parents[i]
            if p >= 0:
                in_sampler[i] = in_sampler[p] or self.names[p] == "absppt.sample_abs_ppt_spectrum"
                in_certify[i] = in_certify[p] or self.names[p] == "cli.cmd_verify_certificates"
            mod_self[name.split(".", 1)[0]] += self_time[i]
            fn_calls[name] = fn_calls.get(name, 0) + 1
            fn_self[name] = fn_self.get(name, 0.0) + self_time[i]
        samples = fn_calls.get("absppt.sample_abs_ppt_spectrum", 0)
        lmi_in_sampler = sum(1 for i in range(n) if in_sampler[i] and self.names[i] == "absppt.is_abs_ppt")
        maps = sum(1 for i in range(n) if in_certify[i] and self.names[i] == "sdpsolve.verify_diamond_certificate")
        choi = sum(1 for i in range(n) if in_certify[i] and self.names[i] == "posmaps.choi_matrix")

        out: dict[str, float] = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = mod_self[mod] / rounds
        for fn in FUNCTIONS:
            out[f"{fn}.calls"] = fn_calls.get(fn, 0) / rounds
            out[f"{fn}.self_s"] = fn_self.get(fn, 0.0) / rounds
        out["sdpsolve.newton_steps"] = sum(self.newton.values()) / rounds
        out["absppt.lmi_evals_per_sample"] = lmi_in_sampler / samples if samples else 0.0
        out["posmaps.choi_matrix.per_certificate"] = choi / maps if maps else 0.0
        out["trace.spans"] = n / rounds
        return out
