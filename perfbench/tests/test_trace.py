"""The span recorder: nesting, cross-thread links, and clean probe removal."""

import threading

from perfbench.trace import CLIENT_CALL, Probes, Recorder, probe_table


def _in_thread(target):
    thread = threading.Thread(target=target)
    thread.start()
    thread.join()


def test_spans_on_one_thread_nest_and_share_the_request_id():
    recorder = Recorder(solo=False)
    root = recorder.open(CLIENT_CALL, root=True)
    child = recorder.open("stage")
    recorder.close(child)
    recorder.close(root)
    assert child.parent == root.sid and child.rid == root.rid
    assert root.start <= child.start <= child.end <= root.end
    assert [span.sid for span in recorder.spans] == [child.sid, root.sid]


def test_a_key_links_work_on_another_thread_to_its_request():
    recorder = Recorder(solo=False)
    root = recorder.open(CLIENT_CALL, root=True)
    recorder.link(("envelope", "r-1"), root)
    seen = {}

    def server():
        seen["linked"] = recorder.open("envelope.process", key=("envelope", "r-1"))
        recorder.close(seen["linked"])
        seen["orphan"] = recorder.open("envelope.process", key=("envelope", "other"))
        recorder.close(seen["orphan"])

    _in_thread(server)
    recorder.close(root)
    assert seen["linked"].parent == root.sid and seen["linked"].rid == root.rid
    assert seen["orphan"].rid is None


def test_solo_mode_attaches_orphans_to_the_innermost_open_anchor():
    recorder = Recorder(solo=True)
    root = recorder.open(CLIENT_CALL, root=True)
    seen = {}

    def router():
        seen["route"] = recorder.open("cluster.route_frame", anchor=True)
        _in_thread(lambda: seen.setdefault("exchange", recorder.open("cluster.worker_exchange")))
        recorder.close(seen["exchange"])
        recorder.close(seen["route"])

    _in_thread(router)
    recorder.close(root)
    assert seen["route"].parent == root.sid
    assert seen["exchange"].parent == seen["route"].sid
    assert seen["exchange"].rid == root.rid
    late = recorder.open("after")
    assert late.rid is None


def test_probes_restore_every_original_attribute():
    recorder = Recorder(solo=True)
    before = [
        (owner, attribute, attribute in vars(owner), getattr(owner, attribute))
        for owner, attribute, _ in probe_table(recorder)
    ]
    with Probes(recorder):
        for owner, attribute, _, original in before:
            assert getattr(owner, attribute) is not original
    for owner, attribute, own, original in before:
        assert getattr(owner, attribute) is original
        assert (attribute in vars(owner)) == own
