"""The serve check accepts exactly the statuses a lookup may see."""

from benchkit.workloads import Serve, _Request


def _request(kind, key, value, sent, done):
    request = _Request(kind, key, value, due=sent, sent=sent)
    request.done = done
    return request


def test_lookup_sees_the_last_completed_update_or_one_in_flight():
    serve = Serve(seed=1, nodes=10)
    serve.settled = {3: 0}
    first = _request("update", 3, 1, sent=1.0, done=2.0)
    second = _request("update", 3, 2, sent=4.0, done=6.0)
    third = _request("update", 3, 3, sent=9.0, done=None)   # running
    serve.updates = {3: [first, second, third]}

    # Sent before any UPDATE completed, done after the first was sent.
    assert serve._visible_statuses(
        _request("lookup", 3, 0, sent=0.5, done=3.0)) == {0, 1}
    # Sent after the first completed, while the second ran.
    assert serve._visible_statuses(
        _request("lookup", 3, 0, sent=5.0, done=5.5)) == {1, 2}
    # Later lookups can no longer see the first, so it is dropped.
    assert serve.updates[3] == [second, third]
    assert serve._visible_statuses(
        _request("lookup", 3, 0, sent=7.0, done=9.5)) == {2, 3}
    assert serve.updates[3] == [third]

    wrong = _request("lookup", 3, 0, sent=10.0, done=11.0)
    wrong.answer = ((7,),)
    serve._check(wrong)
    assert serve.errors == ["lookup 3: got ((7,),), expected one of [2, 3]"]
