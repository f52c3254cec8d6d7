"""Every metric the benchmark reports: name -> (unit, better[, bound]).

``BENCHMARK.json`` declares the same metrics; ``test_bench.py`` keeps
the two in step. ``bound`` is the share of the base median by which an
end-to-end metric may worsen before a change counts as a regression.
"""

LAYERS = ("sim", "disk", "controller", "node", "core", "host", "workload",
          "io", "obs", "other")

#: Layers with a public entry point whose calls are counted and timed.
CALL_LAYERS = ("disk", "controller", "node", "core", "host")

#: A pass runs every task of the workload once; ``cpu_s`` sums each
#: task's median CPU seconds over a run's passes, ``point_cpu_s_max`` is
#: the largest of those medians.
END_TO_END = {
    "cpu_s": ("s", "lower", 0.20),
    "point_cpu_s_max": ("s", "lower", 0.20),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "setup_s": ("s", "lower", 0.25),
}

PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_frac"] = ("ratio", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
for _layer in CALL_LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.call_us"] = ("us", "lower")
PER_LAYER.update({
    "requests": ("count", "higher"),
    "sim.processes": ("count", "lower"),
    "sim.processes_per_req": ("1/req", "lower"),
    "disk.seeks_per_req": ("1/req", "lower"),
    "controller.cache_hit_frac": ("ratio", "higher"),
    "core.staged_hit_frac": ("ratio", "higher"),
    "core.readahead_per_req": ("1/req", "lower"),
    "core.wb_flushes": ("count", "lower"),
    "host.cache_hit_frac": ("ratio", "higher"),
    "trace.samples": ("count", "higher"),
    "trace.overhead": ("ratio", "lower"),
})
