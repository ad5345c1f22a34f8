"""Outside-in span recorder for the `lpbdeg` layers.

The recorder wraps public functions of each module by rebinding module and
class attributes inside this process only; the package source is not
touched.  A function is rebound in every loaded `lpbdeg` module that holds
it, so calls made through `from .x import f` copies are seen too.

Each span records calls, inclusive time of outermost calls (`total_s`), self
time (inclusive time minus the time covered by child spans) and exact work
counts taken from the arguments or the result.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable


class Stat:
    """Aggregate of one span name."""

    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts: dict[str, int] = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def maximum(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def as_dict(self) -> dict[str, Any]:
        return {"calls": self.calls, "total_s": self.total_s, "self_s": self.self_s, **self.counts}


# count hooks: (stat, outermost, args, result) -> None


def _roots(stat: Stat, outermost: bool, args: tuple, result: Any) -> None:
    # chern_roots recurses; count the roots of outermost calls only
    if outermost:
        stat.add("roots", len(result.positive) + len(result.negative))


def _factors(stat: Stat, outermost: bool, args: tuple, result: Any) -> None:
    stat.add("factors", len(args[0]))


def _ring_term_pairs(stat: Stat, outermost: bool, args: tuple, result: Any) -> None:
    left, right = args
    stat.add("term_pairs", len(left.terms) * len(right.terms) if hasattr(right, "terms") else 0)


def _dict_term_pairs(stat: Stat, outermost: bool, args: tuple, result: Any) -> None:
    stat.add("term_pairs", len(args[0]) * len(args[1]))


def _max_bits(stat: Stat, outermost: bool, args: tuple, result: Any) -> None:
    stat.maximum("max_bits", int(result).bit_length())


def _cache_lookup(stat: Stat, outermost: bool, args: tuple, result: Any) -> None:
    stat.add("hits" if result is not None else "misses", 1)


# (span name, module, attribute path, count hook)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("exact.lagrange_interpolate", "lpbdeg.exact", "lagrange_interpolate", None),
    ("polyring.TruncatedPoly.mul", "lpbdeg.polyring", "TruncatedPoly.__mul__", _ring_term_pairs),
    ("polyring.product_shifted_linear", "lpbdeg.polyring", "product_shifted_linear", _factors),
    ("polyring.inverse_unit_series", "lpbdeg.polyring", "inverse_unit_series", None),
    ("symfunc.segre_via_characters", "lpbdeg.symfunc", "segre_via_characters", None),
    ("bundles.chern_roots", "lpbdeg.bundles", "chern_roots", _roots),
    ("bundles.chern_character_graded", "lpbdeg.bundles", "chern_character_graded", None),
    ("grassmann.integrate", "lpbdeg.grassmann", "GrassContext.integrate", None),
    ("foliation.degree_lpb", "lpbdeg.foliation", "degree_lpb", _max_bits),
    ("forms.poly_mul", "lpbdeg.forms", "poly_mul", _dict_term_pairs),
    ("forms.substitute_linear", "lpbdeg.forms", "substitute_linear", None),
    ("forms.contract_radial", "lpbdeg.forms", "contract_radial", None),
    ("forms.integrability_defect", "lpbdeg.forms", "integrability_defect", None),
    ("forms.pullback_linear", "lpbdeg.forms", "pullback_linear", None),
    ("forms.recover", "lpbdeg.forms", "recover", None),
    ("forms.random_form", "lpbdeg.forms", "random_form", None),
    ("forms.random_projection", "lpbdeg.forms", "random_projection", None),
    ("cli.DegreeCache.load", "lpbdeg.cli", "DegreeCache._load", None),
    ("cli.DegreeCache.get", "lpbdeg.cli", "DegreeCache.get", _cache_lookup),
    ("cli.DegreeCache.put", "lpbdeg.cli", "DegreeCache.put", None),
)


class Recorder:
    """Nested spans over rebound functions; `install` then `restore`."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        # one frame per open span: the time its child spans have covered
        self._stack: list[list[float]] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """`fn` recorded as span `name`."""
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        open_calls = [0]

        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]
            stack.append(frame)
            open_calls[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_calls[0] -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not open_calls[0]:
                    stat.total_s += elapsed
            if count is not None:
                count(stat, not open_calls[0], args, result)
            return result

        self._wrappers.add(id(span))
        return span

    def install(self) -> None:
        """Rebind every target in every `lpbdeg` module or class holding it."""
        for name, module_name, path, count in TARGETS:
            owner: object = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, count)
            sites = [(owner, attr)] if outer else _module_sites(original)
            for site, site_attr in sites:
                self._bindings.append((site, site_attr, original))
                setattr(site, site_attr, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere.

        The check scans every `lpbdeg` module and every class that held a
        target, not just the sites this recorder bound.
        """
        owners = {id(site): site for site, _, _ in self._bindings}
        for site, attr, original in reversed(self._bindings):
            setattr(site, attr, original)
        self._bindings.clear()
        scanned = list(owners.values()) + _lpbdeg_modules()
        return not any(id(value) in self._wrappers for owner in scanned for value in vars(owner).values())

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {name: stat.as_dict() for name, stat in self.stats.items()}


def _lpbdeg_modules() -> list[object]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lpbdeg" or name.startswith("lpbdeg."))
    ]


def _module_sites(original: object) -> list[tuple[object, str]]:
    return [
        (module, attr)
        for module in _lpbdeg_modules()
        for attr, value in vars(module).items()
        if value is original
    ]

