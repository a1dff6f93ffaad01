"""Which public callables the traced pass wraps, per phase, and as what.

Layer names are ``<module>.<what>``; the per-layer metrics in
``BENCHMARK.json`` are derived from them in :mod:`perfbench.run`.
A module-level function is also timed where another module imported
it by name (see :class:`perfbench.spans.Patched`).
"""

from __future__ import annotations

from perfbench.spans import Target

# The analysis stages of ``analyze_trace``.  ``assemble_analysis``'s own
# time (result assembly and the measurement/SCell statistics) is
# ``core.stats``; ``analyze_trace``'s own time is ``core.pipeline``.
ANALYSIS = [
    Target("core.pipeline", "repro.core.pipeline:analyze_trace"),
    Target("core.columns",
           "repro.core.columnar:RecordColumns.from_trace"),
    Target("core.columns",
           "repro.core.columnar:IntervalColumns.from_intervals"),
    Target("core.cellset", "repro.core.cellset:extract_cellset_sequence"),
    Target("core.loops", "repro.core.loops:detect_loop"),
    Target("core.loops", "repro.core.loops:loop_window"),
    Target("core.classify", "repro.core.columnar:classify_loop_columnar"),
    Target("core.metrics", "repro.core.columnar:loop_cycles_columnar"),
    Target("core.metrics", "repro.core.columnar:run_performance_columnar"),
    Target("core.metrics",
           "repro.core.columnar:scg_measurement_delays_columnar"),
    Target("core.stats", "repro.core.pipeline:assemble_analysis"),
]


def _len(result) -> int:
    return len(result)


CAMPAIGN = [
    Target("campaign.runner", "repro.campaign.runner:CampaignRunner.run"),
    Target("campaign.runner", "repro.campaign.runner:run_once", unit=True),
    Target("campaign.deployment",
           "repro.campaign.operators:build_deployment"),
    Target("rrc.session", "repro.rrc.session:simulate_run", count=_len),
    Target("radio.observe", "repro.rrc.session:RadioSampler.observe"),
    Target("radio.observe",
           "repro.rrc.session:RadioSampler.observe_identity"),
    Target("radio.observe", "repro.rrc.session:RadioSampler.fresh_rsrp"),
    Target("rrc.network",
           "repro.rrc.network:SaNetworkLogic.blind_scell_set"),
    Target("rrc.network",
           "repro.rrc.network:SaNetworkLogic.scell_modification"),
    Target("rrc.network",
           "repro.rrc.network:NsaNetworkLogic.redirect_target"),
    Target("rrc.network",
           "repro.rrc.network:NsaNetworkLogic.handover_decision"),
    Target("rrc.network", "repro.rrc.network:NsaNetworkLogic.scg_addition"),
    Target("rrc.network", "repro.rrc.network:NsaNetworkLogic.scg_change"),
    Target("throughput.model",
           "repro.throughput.model:DataRateModel.rate_mbps"),
    Target("throughput.model",
           "repro.throughput.model:DataRateModel.lte_only_rate_mbps"),
    Target("throughput.model",
           "repro.throughput.model:DataRateModel.split_primary"),
    Target("traces.to_jsonl", "repro.traces.log:SignalingTrace.to_jsonl"),
    Target("resilience.memo_digest", "repro.resilience.memo:trace_digest"),
    Target("resilience.memo_get", "repro.resilience.memo:AnalysisMemo.get"),
    Target("resilience.memo_put", "repro.resilience.memo:AnalysisMemo.put"),
    Target("resilience.checkpoint_append",
           "repro.resilience.checkpoint:CampaignCheckpoint.record_success"),
    Target("resilience.checkpoint_append",
           "repro.resilience.checkpoint:CampaignCheckpoint.record_failure"),
    Target("analysis.report", "repro.analysis.report:campaign_report"),
] + ANALYSIS

INGEST = [
    Target("traces.parse_nsg", "repro.traces.nsg_format:parse_nsg_text",
           count=_len),
    Target("traces.parse_jsonl", "repro.traces.parser:parse_jsonl",
           count=_len),
] + ANALYSIS

STREAM = [
    Target("serve.read_frame", "repro.serve.server:read_frame"),
    Target("traces.parse_record", "repro.traces.parser:parse_record"),
    Target("core.incremental_feed",
           "repro.core.incremental:IncrementalAnalyzer.feed"),
    Target("core.incremental_finalize",
           "repro.core.incremental:IncrementalAnalyzer.finalize"),
]

TARGETS = {"campaign": CAMPAIGN, "ingest": INGEST, "stream": STREAM}
