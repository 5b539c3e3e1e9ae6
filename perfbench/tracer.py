"""In-memory span tracer that wraps nucshift's public functions from outside.

Every wrapped call records one span: name, start, end, parent span and the
name of the exception it raised, if any.  Spans stay in memory until the
process ends its run and calls ``summary()``, which reduces them to per-name
call counts, self times and error counts.  Self time is a span's duration
minus the time covered by its direct children; calls are strictly nested in
one thread, so that cover is the sum of the children's durations.

The tracer replaces each target function in the namespace of the module that
defines it and of every nucshift module that imported it, the package
namespace included, so calls between modules go through the wrapper too.
"""

from __future__ import annotations

import builtins
import functools
import sys
import time

# (defining module, function) pairs whose calls become spans.
TARGETS = (
    ("spin_algebra", "clebsch_gordan"),
    ("spin_algebra", "make_spin_operators"),
    ("hyperfine", "hf_energies"),
    ("shift_coefficients", "b_coefficients"),
    ("shift_coefficients", "a_coefficients"),
    ("cg_oracle", "oracle_d_tensor"),
    ("cg_oracle", "extract_b_from_d"),
    ("cg_oracle", "oracle_vs_analytic_deviation"),
    ("field_configs", "field_at"),
    ("field_configs", "assemble_heff"),
    ("field_configs", "counterprop_components"),
    ("field_configs", "soc_components"),
    ("field_configs", "soc_rotating_frame"),
    ("bichromatic", "merit_scan"),
    ("bichromatic", "solve_tensor_cancellation"),
    ("bichromatic", "combined_coefficients"),
    ("cli", "parse_config"),
    ("cli", "run_subcommand"),
)

def _assemble_heff_name(args, kwargs) -> str:
    # a-form and b-form assembly are different code paths; trace them apart
    coeffs = args[0] if args else kwargs["coeffs"]
    return f"field_configs.assemble_heff.{coeffs.form.value}_form"


_SPAN_NAMERS = {"field_configs.assemble_heff": _assemble_heff_name}


class Tracer:
    """Records spans for the calls made through the functions it wrapped."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, str | None]] = []
        self._stack: list[int] = []

    def _begin(self, name: str) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0, 0, parent, None))
        self._stack.append(idx)
        return idx, time.perf_counter_ns()

    def _end(self, idx: int, start: int, error: str | None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, _, _, parent, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, error)

    def wrap(self, fn, name: str):
        namer = _SPAN_NAMERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, start = self._begin(namer(args, kwargs) if namer else name)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                self._end(idx, start, error)

        return traced

    def traced_open(self, *args, **kwargs):
        """open() for the CLI module: a write handle is one span from open to close."""
        mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
        if "w" not in mode:
            return builtins.open(*args, **kwargs)
        tracer = self
        idx, start = self._begin("cli.write")
        try:
            fh = builtins.open(*args, **kwargs)
        except BaseException as exc:
            self._end(idx, start, type(exc).__name__)
            raise

        class _WriteSpan:
            def __enter__(self):
                return fh.__enter__()

            def __exit__(self, *exc_info):
                try:
                    return fh.__exit__(*exc_info)
                finally:
                    tracer._end(idx, start, exc_info[0].__name__ if exc_info[0] else None)

        return _WriteSpan()

    def install(self) -> None:
        """Wrap every target in every imported nucshift module's namespace."""
        spaces = [m.__dict__ for key, m in list(sys.modules.items())
                  if key == "nucshift" or key.startswith("nucshift.")]
        for module_name, fn_name in TARGETS:
            module = sys.modules.get(f"nucshift.{module_name}")
            if module is None:
                continue
            original = getattr(module, fn_name)
            wrapper = self.wrap(original, f"{module_name}.{fn_name}")
            for space in spaces:
                for attr, value in list(space.items()):
                    if value is original:
                        space[attr] = wrapper
        if "nucshift.cli" in sys.modules:
            sys.modules["nucshift.cli"].open = self.traced_open

    def summary(self) -> dict:
        """Per span name: calls, total_ns, self_ns, first_ns (first call) and errors by type."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for idx, (name, start, end, parent, error) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0, "first_ns": end - start,
                                          "total_ns": 0, "errors": {}})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[idx]
            if error is not None:
                entry["errors"][error] = entry["errors"].get(error, 0) + 1
        return out
