"""Spans around the public functions of each upqgrowth layer, from outside.

Tracer.install() replaces every binding of a traced function in every loaded
upqgrowth module with a wrapper: calls inside a module go through its
globals, so the wrapper on shapes.local_run_data also sees the calls from
shapes.delta_max. Each call is a span (name, start, end, parent span,
command id), kept in memory until the pass ends. Self time is a span's
duration minus the time its child spans cover, summed per function as the
spans close.

A generator function's span covers only the time spent inside it while the
caller resumes it, so the caller's own work between items is not charged
to it.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

TRACED = {
    "cli": ("run", "load_rep"),
    "cohomology": ("global_rep_from_json",),
    "partitions": ("partitions_of", "validate_partition", "balanced_bipartition"),
    "infchar": ("total_character", "weyl_dim"),
    "shapes": (
        "local_run_data",
        "sl2_candidates",
        "delta_max",
        "odd_gsk_parity_test",
        "shape_to_json",
    ),
    "growth": (
        "rep_bound",
        "partition_bound",
        "partition_bound0",
        "refined_bound",
        "conjectural_bound",
        "grouped_blocks",
        "all_groupings",
    ),
    "sarnakxue": (
        "sx_row",
        "one_merge_coarsenings",
        "max_ratio",
        "exponent_profile",
        "profile_sum",
        "verify_table1",
        "verify_qd_bound",
        "verify_density",
        "verify_maxsl2",
    ),
    "asymptotics": ("leading_term", "gamma_factor", "index_congruence"),
}

# functions whose repeated arguments within one command are counted
DISTINCT = (
    "growth.partition_bound",
    "growth.refined_bound",
    "shapes.local_run_data",
    "shapes.sl2_candidates",
    "partitions.partitions_of",
)

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items())))
    try:
        hash(key)
    except TypeError:
        return repr(key)
    return key


class Tracer:
    """Span recorder for one pass in one process."""

    def __init__(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n  # of the current command, emptied by end_command
        self.self_by_command = []
        self.distinct = {NAMES.index(name): 0 for name in DISTINCT}
        self._seen = {i: set() for i in self.distinct}
        self.command = -1
        # one entry per span
        self.name = array("H")
        self.parent = array("l")
        self.cmd = array("l")
        self.start = array("d")
        self.end = array("d")
        self._frames = []  # [span index, child seconds]
        self.origin = perf_counter()

    # -- commands ---------------------------------------------------------------

    def begin_command(self, index: int) -> None:
        self.end_command()
        self.command = index

    def end_command(self) -> None:
        if self.command >= 0:
            self.self_by_command.append(list(self.self_s))
            self.self_s[:] = [0.0] * len(self.self_s)
        for i, seen in self._seen.items():
            self.distinct[i] += len(seen)
            seen.clear()

    # -- spans --------------------------------------------------------------------

    def _open(self, i):
        idx = len(self.name)
        self.name.append(i)
        self.parent.append(self._frames[-1][0] if self._frames else -1)
        self.cmd.append(self.command)
        self.start.append(0.0)
        self.end.append(0.0)
        self.calls[i] += 1
        return idx

    def _wrap(self, i, fn):
        frames, start, end, self_s = self._frames, self.start, self.end, self.self_s
        seen = self._seen.get(i)
        open_span = self._open

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(_key(args, kwargs))
            frame = [open_span(i), 0.0]
            frames.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                dur = t1 - t0
                start[frame[0]], end[frame[0]] = t0, t1
                self_s[i] += dur - frame[1]
                if frames:
                    frames[-1][1] += dur

        def traced_gen(*args, **kwargs):
            if seen is not None:
                seen.add(_key(args, kwargs))
            idx = open_span(i)
            inner = fn(*args, **kwargs)
            first = None
            while True:
                frame = [idx, 0.0]
                frames.append(frame)
                t0 = perf_counter()
                first = t0 if first is None else first
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    frames.pop()
                    dur = t1 - t0
                    start[idx], end[idx] = first, t1
                    self_s[i] += dur - frame[1]
                    if frames:
                        frames[-1][1] += dur
                yield item

        return traced_gen if inspect.isgeneratorfunction(fn) else traced

    def install(self) -> None:
        """Wrap every binding of each traced function in loaded upqgrowth modules."""
        modules = [m for name, m in sys.modules.items() if name.startswith("upqgrowth")]
        for i, name in enumerate(NAMES):
            mod, fn_name = name.split(".")
            original = getattr(sys.modules[f"upqgrowth.{mod}"], fn_name)
            wrapper = self._wrap(i, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- output -------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "calls": dict(zip(NAMES, self.calls)),
            "self_s_by_command": self.self_by_command,
            "distinct": {NAMES[i]: n for i, n in self.distinct.items()},
            "spans": len(self.name),
        }

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: span,parent,command,name,start_us,end_us."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,command,name,start_us,end_us\n")
            o = self.origin
            for idx in range(len(self.name)):
                fh.write(
                    f"{idx},{self.parent[idx]},{self.cmd[idx]},{NAMES[self.name[idx]]},"
                    f"{(self.start[idx] - o) * 1e6:.1f},{(self.end[idx] - o) * 1e6:.1f}\n"
                )
