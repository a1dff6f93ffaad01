"""One execution loop: every backend announces and re-executes runs alike.

The in-process backend and the process pool share one schedule-order
merge loop and one run executor, so a run is announced exactly once
whichever executes it, and an unrestorable checkpoint entry re-executes
in the parent under either backend with identical checkpoint bytes and
counters.
"""

import os

from repro.campaign import CampaignRunner, operator
from tests.test_campaign_parallel import run_campaign, small_config


RUN_EVENTS = ("run.completed", "run.quarantined", "run.restored")


def failing_first_run():
    """A run_once stand-in whose run 0 at ``*-P1`` always fails."""
    from repro.campaign.runner import run_once

    def run_fn(deployment, profile, device, point, location_name,
               run_index, duration_s=300, keep_trace=False):
        if location_name.endswith("-P1") and run_index == 0:
            raise RuntimeError("measurement rig offline")
        return run_once(deployment, profile, device, point, location_name,
                        run_index, duration_s=duration_s,
                        keep_trace=keep_trace)
    return run_fn


class TestOneEventPerRun:
    """The executor and the merge must not both announce a run."""

    def run_events(self, obs):
        return [event for event in obs.events.since(0)
                if event.name in RUN_EVENTS]

    def test_each_run_announced_once(self, tmp_path, monkeypatch):
        from repro.campaign import runner as runner_module
        monkeypatch.setattr(runner_module, "run_once", failing_first_run())
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.ckpt"
            obs, result = run_campaign(
                small_config(workers=workers, checkpoint_path=path))
            assert len(result.quarantined) == 1
            events = self.run_events(obs)
            assert sorted(tuple(event.run_key) for event in events) \
                == sorted(scheduled.key for scheduled in CampaignRunner(
                    [operator("OP_V")], small_config()).schedule())
            assert [event.name for event in events].count(
                "run.quarantined") == 1

            # Resume: three runs restore, the quarantined one re-runs.
            obs, resumed = run_campaign(small_config(
                workers=workers, checkpoint_path=path, resume=True))
            events = self.run_events(obs)
            assert len(events) == resumed.scheduled == 4
            assert len({tuple(event.run_key) for event in events}) == 4
            assert [event.name for event in events].count(
                "run.restored") == 3


class TestTracelessResumeUnderPool:
    """A trace-less checkpoint success re-executes in the parent, and
    the pool resume matches the sequential one byte for byte."""

    def traceless_checkpoint(self, path):
        from repro.campaign.runner import run_once

        def drop_first_trace(deployment, profile, device, point,
                             location_name, run_index, duration_s=300,
                             keep_trace=False):
            result = run_once(deployment, profile, device, point,
                              location_name, run_index,
                              duration_s=duration_s, keep_trace=keep_trace)
            if location_name.endswith("-P1") and run_index == 0:
                result.drop_trace()
            return result

        run_campaign(small_config(checkpoint_path=path),
                     run_fn=drop_first_trace)
        assert '"trace": null' in path.read_text()

    def test_only_the_traceless_run_reexecutes_in_parent(
            self, tmp_path, monkeypatch):
        from repro.campaign import runner as runner_module
        original = tmp_path / "traceless.ckpt"
        self.traceless_checkpoint(original)
        calls = []
        stock = runner_module.run_once

        def spy(deployment, profile, device, point, location_name,
                run_index, **kwargs):
            calls.append((location_name, run_index, os.getpid()))
            return stock(deployment, profile, device, point, location_name,
                         run_index, **kwargs)

        monkeypatch.setattr(runner_module, "run_once", spy)
        outcomes = {}
        for workers in (1, 2):
            path = tmp_path / f"resume-w{workers}.ckpt"
            path.write_bytes(original.read_bytes())
            calls.clear()
            obs, result = run_campaign(small_config(
                workers=workers, checkpoint_path=path, resume=True))
            assert calls == [("A9-P1", 0, os.getpid())]
            assert result.scheduled == result.completed == 4
            assert result.reconciles()
            assert obs.registry.counter(
                "campaign_runs_restored_total").total() == 3
            rerun = [span for span in obs.tracer.spans()
                     if span.name == "run"
                     and not span.attributes.get("restored")]
            assert [span.attributes["worker_pid"] for span in rerun] \
                == [os.getpid()]
            outcomes[workers] = (path.read_bytes(),
                                 obs.registry.snapshot()["counters"])
        assert outcomes[2] == outcomes[1]
