"""The one per-block sample of :class:`Observability`.

The service loop tests ``block_keep_first`` / ``block_every_kth`` once
per block: a sampled block records its timeline stages, its
``service.block`` span and its deadline slack, and an unsampled block
records none of them.
"""

import pytest

from repro.errors import ParameterError
from repro.obs import DEADLINE_SLACK_BUCKETS, Observability
from repro.scenarios import SCENARIOS


class TestSampling:
    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            Observability(block_keep_first=-1)
        with pytest.raises(ParameterError):
            Observability(block_every_kth=0)

    def test_unsampled_traces_every_block(self):
        obs = Observability()
        assert all(obs.samples_block(i) for i in range(100))

    def test_keep_first_and_every_kth(self):
        obs = Observability(block_keep_first=4, block_every_kth=16)
        sampled = [i for i in range(64) if obs.samples_block(i)]
        assert sampled == [0, 1, 2, 3, 16, 32, 48]

    def test_keep_first_only(self):
        obs = Observability(block_keep_first=2)
        assert [i for i in range(8) if obs.samples_block(i)] == [0, 1]

    def test_scoped_view_reads_the_parent_policy(self):
        obs = Observability.for_scale(seed=0)
        view = obs.scoped("node-0")
        assert (view.block_keep_first, view.block_every_kth) == (4, 64)


@pytest.mark.parametrize("name, overrides", [
    pytest.param("server-hot", {}, id="server-hot"),
    pytest.param("scale", {}, id="scale"),
    # Long enough to reach the every-64th lattice past the keep-first
    # prefix, and overloaded, so streams stall.
    pytest.param("scale", {"blocks_per_stream": 200}, id="scale-b200"),
])
def test_timeline_spans_and_slack_share_one_sample(name, overrides):
    entry = SCENARIOS[name]
    obs = Observability.for_scale(seed=0)
    entry.run(0, obs, **{**entry.smoke, **overrides})

    block_spans = obs.tracer.spans(name="service.block")
    span_pairs = {(span.session, span.attrs["block"]) for span in block_spans}
    timeline_pairs = {
        (event.session_id, event.block_index) for event in obs.timeline
    }
    assert timeline_pairs == span_pairs
    assert span_pairs == {
        (stream.session, index)
        for stream in obs.tracer.spans(name="service.stream")
        for index in range(stream.attrs["blocks"])
        if obs.samples_block(index)
    }

    delivered = [span for span in block_spans if span.status != "skipped"]
    slack = obs.registry.histogram(
        "session.deadline_slack_s", DEADLINE_SLACK_BUCKETS
    )
    assert slack.count == len(delivered) > 0
