"""Per-layer spans and counters, recorded from outside the package.

``install`` replaces the public functions of each layer with wrappers that
open a span and count work, and returns a function that puts the
originals back.  Layers are named after the modules.  A span's self time
is its duration minus the time of the spans it caused; generator layers
(the orientation enumerator) are timed per step, so the consumer's work
between steps stays with the consumer.  Every wrapped call also
increments counters, so the work counts are exact and repeat for the same
inputs.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

STAGES = ("clique-transitivity", "typing", "lemma41", "lemma42", "lemma43")

LAYERS = (
    "cli",
    "graphs.parse",
    "orientations.enumerate",
    "orientations.shortcut",
    "orientations.comparability",
    "orientations.oddwalk",
    "orientations.uniform_word",
    "cobipartite.structural",
    "words.represents",
)

COUNTERS = (
    "graphs.parse.calls",
    "orientations.enumerate.orders",
    "orientations.enumerate.yielded",
    "orientations.shortcut.calls",
    "orientations.shortcut.free",
    "orientations.comparability.calls",
    "orientations.comparability.transitive_checks",
    "orientations.oddwalk.calls",
    "orientations.oddwalk.found",
    "orientations.uniform_word.calls",
    "orientations.uniform_word.found",
    "cobipartite.structural.calls",
    "cobipartite.structural.pass",
    *(f"cobipartite.structural.stage.{stage}" for stage in STAGES),
    "words.represents.calls",
    "words.represents.pairs",
)


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self._stack: list[list] = []  # [layer, time covered by child spans]

    def _enter(self, layer: str) -> float:
        self._stack.append([layer, 0.0])
        return perf_counter()

    def _exit(self, start: float) -> None:
        elapsed = perf_counter() - start
        layer, children = self._stack.pop()
        self.self_s[layer] += elapsed - children
        if self._stack:
            self._stack[-1][1] += elapsed
        else:
            self.root_s += elapsed

    def call(self, layer: str, fn, *args, **kwargs):
        start = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(start)

    def steps(self, layer: str, iterator):
        """Re-yield an iterator's items, timing each step as a span of ``layer``."""
        while True:
            start = self._enter(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(start)
            yield item


def install(tracer: Tracer):
    """Wrap each layer's public functions; returns a function that undoes it."""
    from wordrep import cli, cobipartite as cob, graphs as gr, orientations as ori, words as wd

    saved = []
    counts = tracer.counts

    def patch(owners, name, wrapper_factory):
        # A function the program no longer has leaves its layer at zero.
        owners = [owner for owner in owners if hasattr(owner, name)]
        if not owners:
            return
        wrapper = wrapper_factory(getattr(owners[0], name))
        for owner in owners:
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)

    def plain(layer, counter=None, hit=None):
        def factory(fn):
            def wrapped(*args, **kwargs):
                result = tracer.call(layer, fn, *args, **kwargs)
                if counter:
                    counts[counter] += 1
                if hit and hit(result):
                    counts[f"{layer}.{hit.__name__}"] += 1
                return result
            return wrapped
        return factory

    def free(result):
        return result is None

    def found(result):
        return result is not None

    def enumerate_factory(fn):
        def wrapped(g, orders, *args, **kwargs):
            def counted():
                for order in orders:
                    counts["orientations.enumerate.orders"] += 1
                    yield order
            inner = fn(g, counted(), *args, **kwargs)
            for item in tracer.steps("orientations.enumerate", inner):
                counts["orientations.enumerate.yielded"] += 1
                yield item
        return wrapped

    def structural_factory(fn):
        def wrapped(o, partition):
            verdict, report = tracer.call("cobipartite.structural", fn, o, partition)
            counts["cobipartite.structural.calls"] += 1
            if verdict:
                counts["cobipartite.structural.pass"] += 1
            else:
                counts[f"cobipartite.structural.stage.{report.failed_stage}"] += 1
            return verdict, report
        return wrapped

    def transitive_factory(fn):
        def wrapped(out):
            counts["orientations.comparability.transitive_checks"] += 1
            return fn(out)
        return wrapped

    def represents_factory(fn):
        def wrapped(w, g):
            n = len(g.vertices)
            counts["words.represents.calls"] += 1
            counts["words.represents.pairs"] += n * (n - 1) // 2
            return tracer.call("words.represents", fn, w, g)
        return wrapped

    patch([cli], "main", plain("cli"))
    patch([gr], "parse_graph_text", plain("graphs.parse", "graphs.parse.calls"))
    patch([ori, cob], "outsets_for_orders", enumerate_factory)
    patch([getattr(ori, "ShortcutSearcher", None)], "find",
          plain("orientations.shortcut", "orientations.shortcut.calls", free))
    patch([cob], "is_semi_transitive_cobip", structural_factory)
    for name in ("is_comparability", "representable_via_dominant"):
        patch([ori], name,
              plain("orientations.comparability", "orientations.comparability.calls"))
    patch([ori], "outs_transitive", transitive_factory)
    patch([ori], "find_noncomparability_witness",
          plain("orientations.oddwalk", "orientations.oddwalk.calls", found))
    patch([ori], "bounded_representation_number", plain("orientations.uniform_word"))
    patch([ori], "find_uniform_word",
          plain("orientations.uniform_word", "orientations.uniform_word.calls", found))
    patch([wd], "represents", represents_factory)

    def uninstall():
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return uninstall
