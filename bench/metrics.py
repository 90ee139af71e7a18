"""Names and units of everything the benchmark reports.

BENCHMARK.json lists the same names; the smoke test holds the two equal.
"""

WORKLOADS = ("mirror_map", "lattice_growth", "mirror_involution", "cli_cold")

# End-to-end metrics with a bound in BENCHMARK.json. ``ops_per_s`` and
# ``op_p50_ms`` are measured too but only reported: on a shared host their
# run-to-run spread is wider than any bound a regression check can use
# (see bench/README.md).
END_TO_END = (("setup_s", "s"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
REPORTED = ("ops_per_s", "op_p50_ms")

CLI_COMMANDS = ("lattice.info", "mirror.construct", "mirror.phi", "mirror.phi-inverse",
                "bv.hodge", "census.check", "leray.bv", "hk.table")

# Per-layer metrics: span name -> the fields reported for it.
SPAN_FIELDS = (
    ("matrixops.smith_normal_form", ("calls", "ms", "max_bits")),
    ("matrixops.integer_kernel", ("ms",)),
    ("matrixops.solve_rational", ("calls", "ms")),
    ("matrixops.rank_rational", ("calls", "ms")),
    ("matrixops.rational_inverse", ("calls", "ms")),
    ("matrixops.bareiss_det", ("calls", "ms")),
    ("matrixops.mat_vec", ("calls", "ms")),
    ("lattice.orthogonal_complement", ("ms", "max_bits")),
    ("lattice.saturation", ("ms",)),
    ("lattice.coordinates_in", ("calls", "ms")),
    ("lattice.same_sublattice", ("calls", "ms")),
    ("lattice.det_and_signature", ("ms",)),
    ("mirror.check_admissible", ("ms",)),
    ("mirror.construct_mirror", ("ms", "self_ms")),
    ("mirror.m_check", ("max_bits",)),
    ("mirrormap.phi", ("ms",)),
    ("mirrormap.phi_inverse", ("ms", "self_ms")),
    ("mirrormap.omega", ("max_bits",)),
    ("domains.quadrics", ("ms",)),
    ("domains.in_primed", ("ms",)),
    ("involution.LatticeInvolution", ("ms",)),
    ("involution.invariant_sublattices", ("ms",)),
    ("involution.mirror_involution", ("ms", "self_ms")),
    ("involution.reflection_through", ("ms",)),
    ("jsonio.load_json_arg", ("ms",)),
    ("jsonio.dumps", ("ms",)),
)
FIELD_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "max_bits": "bits"}
CLI_METRICS = (("cli.interpreter_ms", "ms"), ("cli.import_ms", "ms"), ("cli.startup_ms", "ms")) \
    + tuple((f"cli.run.{c}.ms", "ms") for c in CLI_COMMANDS)
TRACE_METRICS = (("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
                 ("trace.overhead_pct", "%"))
PER_LAYER = tuple((f"{span}.{f}", FIELD_UNITS[f]) for span, fields in SPAN_FIELDS
                  for f in fields) + CLI_METRICS + TRACE_METRICS
