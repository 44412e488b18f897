"""Outside-in layer trace: wraps the public functions of each erdosavoid
module from the benchmark's side and records spans and counters.

Every wrapped call that is not a recursion into the same function
counts as one call.  A span holds a name, start, end, parent span and
item id; a function's self time is its span time minus the time of the
child spans.  Functions that run too often for one span per call keep
only counters and a duration histogram, so trace memory stays bounded.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced function.
TARGETS = [
    ("cli", "main"),
    ("cli", "write_atomic"),
    ("rationals", "format_rational"),
    ("largescale", "digit_avoider"),
    ("largescale", "certify_linear_escape"),
    ("largescale", "validate_linear_escape"),
    ("largescale", "point_escape_index"),
    ("largescale", "DigitGenerator.removed_digits"),
    ("largescale", "ell_upper_bound"),
    ("largescale", "geometric_escape_via_log"),
    ("intervals", "IntervalSet.__init__"),
    ("intervals", "IntervalSet.intersection"),
    ("intervals", "IntervalSet.affine"),
    ("intervals", "IntervalSet.find_gap_containing"),
    ("gaptree", "from_middle_ratio"),
    ("gaptree", "thickness"),
    ("gaptree", "to_interval_set"),
    ("gaptree", "GapTree.min_depth"),
    ("intersect", "_all_gaps"),
    ("sumsets", "DyadicFamily.union_set"),
    ("sumsets", "FrameCertifier.__init__"),
    ("sumsets", "FrameCertifier.certify"),
    ("sumsets", "FrameCertifier.corner_verdict"),
    ("sumsets", "FrameCertifier.find_common_point"),
    ("sumsets", "sumset_cover_probe"),
    ("smallscale", "build_sublacunary_avoider"),
    ("sequences", "SequenceSpec.term"),
    ("sequences", "SequenceSpec.first_index_with_ratio_at_most"),
    ("enclosures", "ln_interval"),
]

# Functions that can run more than 10^4 times in one repetition.
COUNTED_ONLY = {
    "largescale.point_escape_index",
    "largescale.DigitGenerator.removed_digits",
    "sequences.SequenceSpec.term",
    "rationals.format_rational",
    "intervals.IntervalSet.__init__",
}


class Stats:
    __slots__ = ("calls", "total_s", "self_s", "nested_calls", "extra", "histogram")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.nested_calls = 0
        self.extra = defaultdict(int)
        self.histogram = defaultdict(int)  # bucket: bit length of duration in ns

    def to_json(self) -> dict:
        return {
            "calls": self.calls, "total_s": self.total_s, "self_s": self.self_s,
            "nested_calls": self.nested_calls, **self.extra,
            "histogram_log2_ns": dict(sorted(self.histogram.items())),
        }


def _escape_steps(args, result, stats):
    # the step at which the point escaped, or the whole scan when it did not
    stats.extra["steps"] += result if result is not None else args[3]


def _certified(args, result, stats):
    stats.extra["certified"] += result.status == "certified"


def _intersection_components(args, result, stats):
    stats.extra["components"] += len(args[0]) + len(args[1])


def _affine_components(args, result, stats):
    stats.extra["components"] += len(args[0])


# Counters taken from each call's arguments and result.
ON_RETURN = {
    "largescale.point_escape_index": _escape_steps,
    "largescale.certify_linear_escape": _certified,
    "intervals.IntervalSet.intersection": _intersection_components,
    "intervals.IntervalSet.affine": _affine_components,
}

# A find_common_point call that ran an intersection fell back from the
# tree descent to the full level-set intersection.
FALLBACK_OF = ("sumsets.FrameCertifier.find_common_point",
               "intervals.IntervalSet.intersection")


class Tracer:
    """Spans and counters for one traced run, kept in memory."""

    def __init__(self, item_boundary: str | None = None):
        self.stats: dict[str, Stats] = defaultdict(Stats)
        self.spans: list[tuple] = []  # (name, start, end, parent, item)
        self.stack: list[list] = []  # [name, span index or -1, child time]
        self.item = -1
        self.item_boundary = item_boundary
        self._last_boundary_args = None
        self._restore: list[tuple] = []

    def set_item(self, item: int) -> None:
        self.item = item

    def wrap(self, name: str, fn):
        stats = self.stats[name]
        counted_only = name in COUNTED_ONLY
        on_return = ON_RETURN.get(name)
        boundary = name == self.item_boundary
        fallback = name == FALLBACK_OF[0]
        stack = self.stack
        spans = self.spans
        clock = time.perf_counter
        active = [0]

        def traced(*args, **kwargs):
            if active[0]:
                stats.nested_calls += 1
                return fn(*args, **kwargs)
            if boundary and args[1:3] != self._last_boundary_args:
                # repeated calls on the same box (n_max doubling) are one item
                self._last_boundary_args = args[1:3]
                self.item += 1
            active[0] = 1
            parent = stack[-1][1] if stack else -1
            if counted_only:
                index = -1
            else:
                index = len(spans)
                spans.append(None)
            # a counted-only frame passes its parent on to spans below it
            frame = [name, parent if counted_only else index, 0.0]
            stack.append(frame)
            marker = self.stats[FALLBACK_OF[1]].calls if fallback else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] = 0
                elapsed = end - start
                if stack:
                    stack[-1][2] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[2]
                stats.histogram[int(elapsed * 1e9).bit_length()] += 1
                if index >= 0:
                    spans[index] = (name, start, end, parent, self.item)
                if fallback and self.stats[FALLBACK_OF[1]].calls > marker:
                    stats.extra["fallbacks"] += 1
            if on_return is not None:
                on_return(args, result, stats)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in its defining module or class, and in every
        erdosavoid namespace that bound the same object by `from ... import`."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "erdosavoid" or n.startswith("erdosavoid.")) and m is not None]
        for module_name, qualname in TARGETS:
            owner = sys.modules[f"erdosavoid.{module_name}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self.wrap(f"{module_name}.{qualname}", original)
            self._patch(owner, attr, wrapper)
            if not path:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def to_json(self) -> dict:
        return {
            "functions": {name: s.to_json() for name, s in sorted(self.stats.items())},
            "spans": {
                "fields": ["name", "start", "end", "parent", "item"],
                "rows": self.spans,
            },
        }
