"""Layer tracing from outside the package.

The tracer wraps public functions of torsolve's modules and rebinds every
`torsolve.*` module attribute that refers to them, because modules import
each other's functions by name (`solver` holds its own `track_all`). A
span records name, start, end, parent span and op id; spans stay in memory
and are reduced to per-layer metrics at the end. Some functions are only
counted, without a span, because they run hundreds of thousands of times
per op.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

# (module, attribute) pairs that get a span.
SPANNED = [
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "unimodular_inverse"),
    ("supports", "vertices"),
    ("supports", "span_rank"),
    ("geometry", "mixed_volume"),
    ("geometry", "mv_is_zero"),
    ("decompose", "classify"),
    ("decompose", "predict_tree"),
    ("torus", "diagonal_fiber"),
    ("torus", "restrict_to_fiber"),
    ("tracking", "track_all"),
    ("tracking", "track_path"),
    ("tracking", "newton_refine"),
    ("solver", "solve_decomposable"),
    ("solver", "solve_general"),
    ("solver", "blackbox"),
]
# (module, attribute or Class.method, counter name) entries that are only counted.
COUNTED = [
    ("torus", "compile_system", "torus.compile_system.calls"),
    ("torus", "CompiledSystem.evaluate", "torus.eval.calls"),
    ("torus", "CompiledSystem.eval_and_jacobian", "torus.eval.calls"),
    ("tracking", "Homotopy.state", "tracking.homotopy_state.calls"),
]
PATH_FAILURES = ("step-underflow", "divergence", "left-torus", "max-steps", "no-convergence",
                 "duplicate-endpoint")
TREE_KINDS = ("lacunary", "triangular", "blackbox", "univariate")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, raised]
        self.stack = []
        self.counts = Counter()
        self.homotopy_paths = []  # paths per track_all call
        self.homotopy_kept = 0
        self.op = None
        self.missing = []
        self._patches = self._resolve()  # (owner, attribute, original, wrapper)

    def _resolve(self):
        """Look every traced function up by name and list the attributes to
        rebind; names that no longer exist go to `missing`."""
        package = sys.modules["torsolve"]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "torsolve" or name.startswith("torsolve."))]
        patches = []

        def everywhere(original, wrapper):
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        patches.append((module, key, original, wrapper))

        for mod, attr in SPANNED:
            original = getattr(getattr(package, mod, None), attr, None)
            if original is None:
                self.missing.append(f"{mod}.{attr}")
                continue
            everywhere(original, self._spanned(f"{mod}.{attr}", original))
        for mod, path, counter in COUNTED:
            owner = getattr(package, mod, None)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{mod}.{path}")
            elif classes:
                patches.append((owner, attr, original, self._counted(counter, original)))
            else:
                everywhere(original, self._counted(counter, original))
        return patches

    def install(self):
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def _counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn):
        spans = self.spans
        stack = self.stack
        observe = self._observe_track_all if name == "tracking.track_all" else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_track_all(self, args, kwargs, result):
        starts = args[1] if len(args) > 1 else kwargs["starts"]
        solutions, failures = result
        self.homotopy_paths.append(len(starts))
        self.homotopy_kept += len(solutions)
        for _, failure in failures:
            self.counts[f"tracking.fail.{failure.reason}"] += 1

    def record_tree(self, tree):
        """Add the node counts and ledger of a returned decomposition tree."""
        for node in tree.walk():
            if node.kind in TREE_KINDS:
                self.counts[f"decompose.nodes.{node.kind}"] += 1
            self.counts["decompose.bezout_paths"] += node.bezout_paths
            self.counts["decompose.gamma_retries"] += node.gamma_retries
            self.counts["decompose.transfers"] += node.transfers
        self.counts["decompose.ledger_paths"] += tree.ledger()

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round: counts, self seconds, ratios."""
        calls = Counter()
        raised = Counter()
        self_s = Counter()
        for name, start, end, parent, _op, failed in self.spans:
            calls[name] += 1
            raised[name] += failed
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        out = {}
        for mod, attr in SPANNED:
            name = f"{mod}.{attr}"
            out[f"{name}.calls"] = calls[name] / rounds
            out[f"{name}.self_s"] = self_s[name] / rounds
        out["tracking.newton_refine.failed"] = raised["tracking.newton_refine"] / rounds
        for _mod, _path, counter in COUNTED:
            out[counter] = self.counts[counter] / rounds
        for reason in PATH_FAILURES:
            key = f"tracking.fail.{reason}"
            out[key] = self.counts[key] / rounds
        for key in [f"decompose.nodes.{kind}" for kind in TREE_KINDS] + [
                "decompose.ledger_paths", "decompose.bezout_paths",
                "decompose.gamma_retries", "decompose.transfers"]:
            out[key] = self.counts[key] / rounds
        paths = self.homotopy_paths
        out["tracking.paths_per_homotopy_p50"] = statistics.median(paths) if paths else 0
        out["tracking.useful_ratio"] = self.homotopy_kept / sum(paths) if paths else 0
        return out
