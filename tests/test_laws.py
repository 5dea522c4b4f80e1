"""Algebraic laws of adaptation on small seeded random instances, each
adaptation checked against the per-tuple reference
(``search_reference.apply_adaptation``). A faster adaptation kernel must
keep all four:

- monotonicity: p <= q implies A(p) <= A(q);
- the split law: A(p) = A(p without v in p_i) | A(p with p_i = {bot, v});
- bot normalization is idempotent;
- prepending an adapter never raises a chain's score, for any
  non-negative weights.
"""

from __future__ import annotations

from functools import lru_cache

from hypothesis import assume, given, settings, strategies as st

import search_reference as ref
from adaptchain import (
    BOT,
    apply_adaptation,
    identity_pipeline,
    normalize_vector,
    prepend,
)
from adaptchain.generator import GenParams, random_instance
from adaptchain.model import AdapterGraph, AvailabilityVector, Interface
from adaptchain.search import WeightMap, count_abstract

LAWS = settings(max_examples=60, deadline=None)


@lru_cache(maxsize=None)
def instance(seed: int) -> AdapterGraph:
    graph, _, _ = random_instance(GenParams(
        interface_count=4,
        methods_per_interface=(1, 3),
        values_per_method=(1, 3),
        adapter_count=8,
        entry_density=0.5,
        seed=seed,
    ))
    return graph


def vectors(interface: Interface, within: AvailabilityVector | None = None):
    """Bot-normalized vectors over ``interface``, componentwise within
    ``within`` when given."""
    pools = [
        sorted((within.components[i] if within is not None else set(d.values)) - {BOT})
        for i, d in enumerate(interface.domains)
    ]
    return st.tuples(
        *(st.sets(st.sampled_from(pool)) if pool else st.just(set()) for pool in pools)
    ).map(lambda sets: normalize_vector(interface, sets))


def adapt(adapter, p: AvailabilityVector) -> AvailabilityVector:
    result = apply_adaptation(adapter, p)
    assert result == ref.apply_adaptation(adapter, p)
    return result


@st.composite
def adapter_and_vector(draw):
    graph = instance(draw(st.integers(0, 40)))
    adapter = graph.adapters[draw(st.sampled_from(sorted(graph.adapters)))]
    return adapter, draw(vectors(adapter.source))


@LAWS
@given(adapter_and_vector(), st.data())
def test_monotonicity(case, data):
    adapter, q = case
    p = data.draw(vectors(adapter.source, within=q))
    assert ref.tuple_subset(adapt(adapter, p), adapt(adapter, q))


@LAWS
@given(adapter_and_vector(), st.data())
def test_split_law(case, data):
    adapter, p = case
    splittable = [i for i, c in enumerate(p.components) if len(c) > 1]
    assume(splittable)
    i = data.draw(st.sampled_from(splittable))
    v = data.draw(st.sampled_from(sorted(p.components[i] - {BOT})))
    without = list(p.components)
    without[i] = p.components[i] - {v}
    only = list(p.components)
    only[i] = frozenset((BOT, v))
    assert adapt(adapter, p) == ref.tuple_union(
        adapt(adapter, AvailabilityVector(p.interface_id, tuple(without))),
        adapt(adapter, AvailabilityVector(p.interface_id, tuple(only))),
    )


@LAWS
@given(adapter_and_vector())
def test_bot_normalization_is_idempotent(case):
    adapter, p = case
    explicit = normalize_vector(adapter.source, [c | {BOT} for c in p.components])
    again = normalize_vector(adapter.source, p.components)
    without = normalize_vector(adapter.source, [c - {BOT} for c in p.components])
    assert explicit == again == without == p
    assert adapt(adapter, explicit) == adapt(adapter, without) == adapt(adapter, p)


@LAWS
@given(st.integers(0, 40), st.data(), st.booleans())
def test_prepending_never_raises_the_score(seed, data, unit):
    graph = instance(seed)
    target = graph.interfaces[data.draw(st.sampled_from(sorted(graph.interfaces)))]
    weights = WeightMap() if unit else WeightMap({
        (interface.id, method.name, value): data.draw(
            st.floats(0, 10, allow_nan=False, allow_infinity=False)
        )
        for interface in graph.interfaces.values()
        for method in interface.methods
        for value in method.domain.non_bottom
    })
    pipeline = identity_pipeline(target)
    score = count_abstract(pipeline, weights)
    while True:
        extensions = [
            a for a in graph.incoming(pipeline.source.id)
            if not pipeline.visits(a.source.id)
        ]
        if not extensions:
            break
        pipeline = prepend(data.draw(st.sampled_from(extensions)), pipeline)
        extended = count_abstract(pipeline, weights)
        assert extended == ref.rescore(pipeline, weights)
        assert extended <= score
        score = extended
