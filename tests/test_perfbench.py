"""The benchmark's tracer: every entry point it wraps must exist, so a
renamed one fails here rather than only in a traced benchmark run."""

import time

from snapnet import rulegen

from helpers import perfbench_module


def test_tracer_wraps_and_restores_every_entry_point():
    """`Tracer.install` wraps each of `ENTRY_POINTS`, a wrapped call
    records its span, and `uninstall` puts every original back."""
    spans = perfbench_module("spans")
    originals = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _, _ in spans.ENTRY_POINTS]
    tracer = spans.Tracer(time.monotonic)
    with tracer.installed():
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is not fn, attr
        assert rulegen.split_xfdd({}, {}) == {}
    assert [s[0] for s in tracer.spans] == ["rulegen.split_xfdd"]
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, attr
