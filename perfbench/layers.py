"""Per-layer metrics of the traced run, and what each should move.

Every metric is a per-op figure of one phase: ``ingest`` (one
``World.add_owner`` call on desk_search, the set-up ``mipp ingest`` of the
store on corel_cli), ``session`` (one
``World.run_session`` on desk_search, one ``mipp query`` on corel_cli) and
``update`` (one ``mipp update`` command on corel_cli).  A metric is named
``<phase>.<layer metric>``; a phase that a workload does not run reports 0.
Which end-to-end metric each layer should move is tabled in README.md.
"""

from __future__ import annotations

INGEST, SESSION, UPDATE = "ingest", "session", "update"
PHASES = (INGEST, SESSION, UPDATE)

# (layer metric, unit, spans summed, statistic, phases reported)
# statistic: calls, ms (inclusive), self_ms (minus child spans), count
# (bytes, pixels or images counted by the wrapper), or rows_per_result.
LAYER_METRICS = (
    ("group_crypto.encrypt_vector.calls", "calls/op",
     ("group_crypto.encrypt_vector",), "calls", PHASES),
    ("group_crypto.encrypt_vector.ms", "ms/op",
     ("group_crypto.encrypt_vector",), "ms", PHASES),
    ("group_crypto.aggregate_and_recover.calls", "calls/op",
     ("group_crypto.aggregate_and_recover",), "calls", PHASES),
    ("group_crypto.aggregate_and_recover.ms", "ms/op",
     ("group_crypto.aggregate_and_recover",), "ms", PHASES),
    ("image_cipher.keygen.ms", "ms/op", ("image_cipher.keygen",), "ms", (INGEST, SESSION)),
    ("image_cipher.keygen.bytes", "bytes/op",
     ("image_cipher.keygen",), "count", (INGEST, SESSION)),
    ("image_cipher.xor.ms", "ms/op", ("image_cipher.xor",), "ms", PHASES),
    ("image_cipher.pgm.ms", "ms/op", ("image_cipher.pgm",), "ms", PHASES),
    ("image_cipher.pgm.bytes", "bytes/op",
     ("image_cipher.pgm",), "count", PHASES),
    ("ehd_features.extract_ehd.calls", "calls/op",
     ("ehd_features.extract_ehd",), "calls", PHASES),
    ("ehd_features.extract_ehd.ms", "ms/op", ("ehd_features.extract_ehd",), "ms", PHASES),
    ("ehd_features.extract_ehd.pixels", "pixels/op",
     ("ehd_features.extract_ehd",), "count", PHASES),
    ("feature_crypto.encrypt_feature_pair.self_ms", "ms/op",
     ("feature_crypto.encrypt_feature_pair",), "self_ms", PHASES),
    ("feature_crypto.recover_sums.calls", "calls/op",
     ("feature_crypto.recover_sums",), "calls", PHASES),
    ("feature_crypto.recover_sums.ms", "ms/op",
     ("feature_crypto.recover_sums",), "ms", PHASES),
    ("feature_crypto.text.ms", "ms/op", ("feature_crypto.text",), "ms", PHASES),
    ("cloud_node.retrieve_top_h.self_ms", "ms/op",
     ("cloud_node.retrieve_top_h",), "self_ms", (SESSION,)),
    ("cloud_node.rows_scored_per_result", "rows/result",
     ("cloud_node.retrieve_top_h",), "rows_per_result", (SESSION,)),
    ("cloud_node.register_owner.self_ms", "ms/op",
     ("cloud_node.register_owner",), "self_ms", (INGEST,)),
    ("cloud_node.apply_update.self_ms", "ms/op",
     ("cloud_node.apply_update",), "self_ms", (UPDATE,)),
    ("cloud_node.load_store.ms", "ms/op", ("cloud_node.load_store",), "ms", (SESSION, UPDATE)),
    ("cloud_node.load_store.read_bytes", "bytes/op",
     ("cloud_node.load_store",), "count", (SESSION, UPDATE)),
    ("cloud_node.save_store.ms", "ms/op", ("cloud_node.save_store",), "ms", (INGEST, UPDATE)),
    ("cloud_node.save_store.written_bytes", "bytes/op",
     ("cloud_node.save_store",), "count", (INGEST, UPDATE)),
    ("kmc_node.reencrypt_results.ms", "ms/op",
     ("kmc_node.reencrypt_results",), "ms", (SESSION,)),
    ("kmc_node.reencrypt_results.images", "images/op",
     ("kmc_node.reencrypt_results",), "count", (SESSION,)),
    ("kmc_node.vault.ms", "ms/op", ("kmc_node.vault",), "ms", PHASES),
    ("protocol_sim.encode_message.ms", "ms/op",
     ("protocol_sim.encode_message",), "ms", (INGEST, SESSION)),
    ("protocol_sim.encode_message.bytes", "bytes/op",
     ("protocol_sim.encode_message",), "count", (INGEST, SESSION)),
    ("protocol_sim.decode_message.ms", "ms/op",
     ("protocol_sim.decode_message",), "ms", (INGEST, SESSION)),
    ("protocol_sim.add_owner.self_ms", "ms/op",
     ("protocol_sim.add_owner",), "self_ms", (INGEST,)),
    ("protocol_sim.run_session.self_ms", "ms/op",
     ("protocol_sim.run_session",), "self_ms", (SESSION,)),
    ("cli.self_ms", "ms/op", ("cli.main",), "self_ms", PHASES),
)

OVERHEAD_METRIC = ("trace.session_overhead_ms", "ms")

# Layers whose wrapped functions must record calls in a traced run of each
# workload.  The cli layer is the op span itself (``cli.main``), so it has
# nothing to check.
REQUIRED_LAYERS = {
    "desk_search": ("group_crypto", "image_cipher", "ehd_features", "feature_crypto",
                    "cloud_node", "kmc_node", "protocol_sim"),
    "corel_cli": ("group_crypto", "image_cipher", "ehd_features", "feature_crypto",
                  "cloud_node", "kmc_node"),
}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        (f"{phase}.{metric}", unit)
        for phase in PHASES
        for metric, unit, _, _, phases in LAYER_METRICS
        if phase in phases
    ]
    return names + [OVERHEAD_METRIC]


def per_layer_values(tracer) -> dict[str, float]:
    """Per-op value of every metric of ``metric_names`` except the overhead."""
    values = {}
    for phase in PHASES:
        n_ops, totals = tracer.totals(phase)
        for metric, _, spans, stat, phases in LAYER_METRICS:
            if phase not in phases:
                continue
            rows = [totals[s] for s in spans if s in totals]
            if stat == "rows_per_result":
                results = sum(r["aux"] for r in rows)
                value = sum(r["count"] for r in rows) / results if results else 0.0
            else:
                total = sum(r[stat] for r in rows)
                value = total / n_ops if n_ops else 0.0
            values[f"{phase}.{metric}"] = value
    return values
