"""Streaming serving simulation: frame arrivals, SLA metrics, sustained FPS.

This package puts Herald's real-time story on top of the batch scheduling
engine (the paper's target is real-time multi-DNN AR/VR serving with
per-model FPS targets, Table II):

* :mod:`repro.serve.trace` — deterministic periodic frame-arrival traces with
  optional phase/jitter (:class:`StreamSpec`);
* :mod:`repro.serve.workload` — :class:`StreamingWorkload`, the per-model
  stream bundle that expands into an ordinary workload spec plus per-frame
  release times and deadlines, and :func:`streaming_suite` for the Table II
  suites at their FPS targets;
* :mod:`repro.serve.simulator` — :class:`ServingSimulator` (online scheduling
  plus SLA accounting) and :func:`sustained_fps` (the zero-miss rate search);
* :mod:`repro.serve.router` — fleet-level frame dispatch: a :class:`Router`
  with pluggable policies (round-robin, least-outstanding,
  SLA-aware earliest-completion, sticky per-stream affinity);
* :mod:`repro.serve.fleet` — :class:`Fleet` / :class:`FleetSimulator` /
  :class:`FleetReport` (N chips behind the router, per-chip reports pooled
  into fleet-wide percentiles) and :func:`min_chips_for_sla` (the fleet-size
  analogue of the sustained-FPS search);
* :mod:`repro.serve.traffic` — deterministic seeded arrival processes
  (Poisson, bursty/MMPP, diurnal ramp, stream churn) compiling into
  :class:`FrameTrace` streams (:class:`TrafficSpec`, :func:`traffic_suite`);
* :mod:`repro.serve.faults` — declarative chip death / slowdown injection
  (:class:`FaultSpec`) consumed by the closed loop;
* :mod:`repro.serve.online` — the closed-loop event engine behind
  :meth:`FleetSimulator.simulate_online`: dispatch on observed queues,
  re-dispatch from dead chips, work stealing, and the
  :class:`AutoscalePolicy` per-interval controller.
"""

from repro.exports import reexport

# Each command imports only the serving modules it runs (the closed-loop
# engine, the router and the traffic generators load on first use).
__all__, __getattr__, __dir__ = reexport(__name__, {
    "repro.serve.trace": ("StreamSpec", "FrameTrace"),
    "repro.serve.workload": ("StreamingWorkload", "streaming_suite",
                             "MODEL_TARGET_FPS", "DEFAULT_TARGET_FPS"),
    "repro.serve.simulator": ("ServingSimulator", "ServingReport",
                              "ServingResult", "StreamStats",
                              "SustainedFpsResult", "sustained_fps",
                              "build_serving_report",
                              "DROP_DEADLINE_FACTOR"),
    "repro.serve.router": ("Router", "DispatchPolicy", "DispatchPlan",
                           "FrameCostEstimator", "policy_by_name",
                           "ROUTER_POLICIES"),
    "repro.choices": ("DISPATCH_POLICY_NAMES", "TRAFFIC_KINDS"),
    "repro.serve.fleet": ("Fleet", "FleetSimulator", "FleetReport",
                          "FleetResult", "ChipStats", "ChipServingResult",
                          "MinChipsResult", "min_chips_for_sla"),
    "repro.serve.traffic": ("TrafficSpec", "traffic_suite"),
    "repro.serve.faults": ("ChipFailure", "SlowdownWindow", "FaultSpec",
                           "parse_fault_clause", "merge_fault_specs"),
    "repro.serve.online": ("AutoscalePolicy", "AutoscaleInterval",
                           "OnlineStats", "OnlineFrameRecord",
                           "OnlineFleetResult"),
})
