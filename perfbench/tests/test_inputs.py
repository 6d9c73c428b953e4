"""Generated inputs depend on the seed and on nothing else."""

from benchkit import inputs


def _stream(seed, count=500):
    stream = inputs.ServeStream(seed, 300)
    return [stream.next() for _ in range(count)]


def _batches(seed, count=5):
    graph = inputs.graph(seed, 300)
    batches = inputs.RefreshBatches(seed, 300, graph.edges, size=20)
    return [batches.next() for _ in range(count)]


def test_graph_is_deterministic_per_seed():
    assert inputs.graph(5, 300) == inputs.graph(5, 300)
    assert inputs.graph(5, 300).edges != inputs.graph(6, 300).edges


def test_serve_stream_is_deterministic_per_seed():
    assert _stream(5) == _stream(5)
    assert _stream(5) != _stream(6)


def test_serve_stream_follows_the_mix():
    kinds = [kind for kind, _, _ in _stream(9, 4000)]
    for kind, share in inputs.SERVE_MIX:
        assert abs(kinds.count(kind) / len(kinds) - share) < 0.03


def test_refresh_batches_are_deterministic_and_deletable():
    first, second = _batches(5), _batches(5)
    assert first == second
    assert first != _batches(6)
    base_weights = {w for _, _, w in inputs.graph(5, 300).edges}
    weights = [weight for weight, _ in first]
    # One weight per batch, shared by no base edge and no other batch,
    # so DELETE ... WHERE weight = w removes exactly one batch.
    assert len(set(weights)) == len(weights)
    assert not base_weights & set(weights)
    for weight, rows in first:
        assert {w for _, _, w in rows} == {weight}
        assert all(src != dst for src, dst, _ in rows)
