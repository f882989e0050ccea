"""The benchmark's tracer must find every oracle layer it hooks.

A hook whose target was renamed or removed makes its layer read "absent" in
`perfbench/run.py --trace 1`; this guard fails instead, so a refactor cannot
drop a traced layer silently.
"""

from pathlib import Path


def test_every_traced_layer_is_hooked(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans

    recorder = spans.Recorder()
    undo = recorder.install()
    try:
        assert recorder.absent == set()
    finally:
        recorder.uninstall(undo)
