"""The names the CLI offers and experiment specs accept.

Argument parsing and spec validation need these choices before anything
runs, so they live here, apart from the modules that implement them:
importing this module loads nothing else, and :mod:`repro.serve.router`
and :mod:`repro.serve.traffic` import them back from here.
"""

#: The policies a multi-chip fleet meaningfully chooses between.
DISPATCH_POLICY_NAMES = ("round-robin", "least-outstanding",
                         "earliest-completion", "sticky")

#: Every registered dispatch policy: passthrough is the degenerate
#: single-chip identity, listed apart from the fleet's real choices.
ROUTER_POLICY_NAMES = ("passthrough",) + DISPATCH_POLICY_NAMES

#: The registered arrival-process kinds, in CLI-facing order.
TRAFFIC_KINDS = ("poisson", "bursty", "diurnal", "churn")
