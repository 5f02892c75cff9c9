"""Folds a perfbench_driver raw result into the reported metrics.

All of the benchmark's arithmetic lives here, so it can be tested on its
own (perfbench/test_metrics.py): percentiles and their ten-beyond rule,
the per-category split, ingest throughput from per-checkpoint medians, the
storage ratio, and span self time.
"""

import math
import statistics

CATEGORIES = ("fcfr", "fcmr", "mcfr", "mcmr")

# name, unit, better. The order is the order they are printed in.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p99_ms", "ms", "lower"),
    ("queries_per_s", "1/s", "higher"),
    ("fcfr_p50_ms", "ms", "lower"),
    ("fcmr_p50_ms", "ms", "lower"),
    ("mcfr_p50_ms", "ms", "lower"),
    ("mcmr_p50_ms", "ms", "lower"),
    ("ingest_mb_s", "MB/s", "higher"),
    ("storage_ratio", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_share", "ratio", "higher"),
)

DIAGNOSTICS = ("topk", "col_dist", "col_diff", "knn", "row_diff", "vis",
               "svcca")

PER_LAYER = (
    ("core.fetch_ms", "ms", "lower"),
    ("core.read_picks", "count", "higher"),
    ("core.rerun_picks", "count", "lower"),
    ("core.mispredictions", "count", "lower"),
    ("core.rho_d_mb_s", "MB/s", "higher"),
    ("core.rho_p_mb_s", "MB/s", "higher"),
    ("storage.pool_hit_ratio", "ratio", "higher"),
    ("storage.pool_hits", "count", "higher"),
    ("storage.pool_loads", "count", "lower"),
    ("storage.disk_read_kb_per_op", "KB", "lower"),
    ("storage.partition_read_ms", "ms", "lower"),
    ("compress.decode_mb_s", "MB/s", "higher"),
    ("compress.encode_mb_s", "MB/s", "higher"),
    ("quantize.decode_mvals_s", "Mvals/s", "higher"),
    ("quantize.encode_mvals_s", "Mvals/s", "higher"),
    ("scan.packed_mvals_s", "Mvals/s", "higher"),
    ("scan.packed_block_share", "ratio", "higher"),
    ("nn.forward_ms", "ms", "lower"),
    ("pipeline.log_s", "s", "lower"),
    ("dedup.duplicate_share", "ratio", "higher"),
) + tuple(("diagnostics.%s_ms" % d, "ms", "lower") for d in DIAGNOSTICS) + (
    ("service.overhead_us", "us", "lower"),
    ("service.cache_hit_ratio", "ratio", "lower"),
    ("service.rejected", "count", "lower"),
    ("net.wire_us", "us", "lower"),
    ("net.encode_us", "us", "lower"),
    ("net.decode_us", "us", "lower"),
    ("net.resp_kb", "KB", "lower"),
    ("cluster.fetch_hop_us", "us", "lower"),
    ("cluster.scan_hop_us", "us", "lower"),
    ("cluster.retries", "count", "lower"),
    ("cluster.hedges", "count", "lower"),
    ("mvcc.publish_visible_ms", "ms", "lower"),
    ("mvcc.retired_max", "count", "lower"),
    ("mvcc.reclaimed", "count", "higher"),
    ("durability.wal_bytes_per_op", "B", "lower"),
    ("durability.sync_write_ms", "ms", "lower"),
    ("metadata.catalog_save_ms", "ms", "lower"),
    ("obs.trace_overhead_pct", "%", "lower"),
) + tuple(("ops.%s" % c, "count", "higher") for c in CATEGORIES)


# ------------------------------------------------------------ percentiles

def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(n, q):
    """How many of n samples lie strictly beyond the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def tail_percentile(values, q=0.99):
    """The q-quantile, only when at least ten samples lie beyond it.

    Returns (value, sample_count); value is None when the run has too few
    samples for the name to hold (q=0.99 needs 1,000).
    """
    n = len(values)
    if n == 0 or beyond(n, q) < 10:
        return None, n
    return percentile(values, q), n


def median(values):
    return statistics.median(values) if values else None


# ------------------------------------------------------------- end to end

def split_by_category(samples):
    """Latencies (seconds) of [kind, category, sec] samples, per category."""
    out = {c: [] for c in CATEGORIES}
    for _kind, category, sec in samples:
        out[CATEGORIES[category]].append(sec)
    return out


def split_by_shape(samples, kinds):
    """Latencies (seconds) of [kind, category, sec] samples, per op shape.

    kinds names the shapes by sample kind index. The result keeps the
    order of kinds and leaves out shapes with no samples.
    """
    out = {}
    for kind, _category, sec in samples:
        out.setdefault(kinds[kind], []).append(sec)
    return {name: out[name] for name in kinds if name in out}


BYTES_PER_DNN_VALUE = 4   # float32 activations, as the network produces them
BYTES_PER_TRAD_VALUE = 8  # TRAD frame values and imported values (double)


def raw_bytes(values):
    """Raw size of {"dnn": n, "trad": n} value counts."""
    return (BYTES_PER_DNN_VALUE * values.get("dnn", 0) +
            BYTES_PER_TRAD_VALUE * values.get("trad", 0))


def ingest_mb_s(unit_values, unit_seconds):
    """Raw MB of one ingested unit (a checkpoint, or an imported model)
    over the median time of one ingest call."""
    unit_bytes = raw_bytes(unit_values)
    if not unit_seconds or unit_bytes <= 0:
        return None
    return unit_bytes / 1e6 / statistics.median(unit_seconds)


def storage_ratio(footprint_bytes, live_values):
    """Stored partition bytes (no WAL) over the raw bytes of the
    intermediates live at the end."""
    live_bytes = raw_bytes(live_values)
    if live_bytes <= 0:
        return None
    return footprint_bytes / live_bytes


def end_to_end(raw):
    """The end-to-end metrics of a plain run, as {name: value}."""
    timed = raw["timed"]
    secs = [s[2] for s in timed["samples"]]
    p99, _ = tail_percentile(secs)
    per_cat = split_by_category(timed["samples"])
    failed = timed["errors"] + timed["wrong"]
    m = {
        "setup_s": median(raw["setup_s"]),
        "query_p50_ms": _ms(median(secs)),
        "query_p99_ms": _ms(p99),
        "queries_per_s": (len(secs) / raw["measured_s"]
                          if raw["measured_s"] > 0 else None),
        "ingest_mb_s": ingest_mb_s(raw["ingest_unit"], raw["ingest_s"]),
        "storage_ratio": storage_ratio(raw["footprint_bytes"], raw["live"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ops_ok_share": (1.0 - failed / timed["attempted"]
                         if timed["attempted"] else None),
    }
    for c in CATEGORIES:
        m[c + "_p50_ms"] = _ms(median(per_cat[c]))
    return m


def _ms(sec):
    return None if sec is None else sec * 1e3


# ------------------------------------------------------------------ spans

def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover. spans are [id, parent, op, name,
    start, end, work]; returns {id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out = {}
    for s in spans:
        start, end = s[4], s[5]
        covered = 0.0
        cursor = start
        for c in sorted(children.get(s[0], []), key=lambda c: c[4]):
            lo, hi = max(c[4], cursor), min(c[5], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s[0]] = max(0.0, (end - start) - covered)
    return out


class SpanIndex:
    """Per-op, per-name totals of span self time, plus rate inputs."""

    def __init__(self, spans):
        selfs = self_times(spans)
        self.by_name = {}   # name -> [(self_sec, work)]
        self.per_op = {}    # op -> {name: [self_sec, ...]}
        for s in spans:
            sec = selfs[s[0]]
            self.by_name.setdefault(s[3], []).append((sec, s[6]))
            self.per_op.setdefault(s[2], {}).setdefault(s[3], []).append(sec)

    def median_ms(self, name):
        vals = [sec for sec, _ in self.by_name.get(name, [])]
        return _ms(median(vals))

    def rate_m(self, name):
        """Work per second of self time, in millions (MB/s, Mvals/s)."""
        pairs = self.by_name.get(name, [])
        total = sum(sec for sec, _ in pairs)
        work = sum(w for _, w in pairs)
        return work / total / 1e6 if total > 0 and work > 0 else None

    def mean_work(self, name):
        pairs = self.by_name.get(name, [])
        return sum(w for _, w in pairs) / len(pairs) if pairs else None

    def op_total_ms(self, name):
        """Median over ops of an op's summed self time in spans `name`."""
        vals = [sum(d[name]) for d in self.per_op.values() if name in d]
        return _ms(median(vals))

    def op_diff_us(self, outer, inner, inner_max=False):
        """Median over ops of (outer total - inner total), in us. With
        inner_max the slowest `inner` span stands in for the inner total
        (a scatter waits for its slowest shard)."""
        vals = []
        for d in self.per_op.values():
            if outer in d and inner in d:
                inner_sec = max(d[inner]) if inner_max else sum(d[inner])
                vals.append(sum(d[outer]) - inner_sec)
        m = median(vals)
        return None if m is None else m * 1e6


def per_layer(raw):
    """The per-layer metrics of a traced run, as {name: value}. A layer
    that does no work in this workload reads 0."""
    layer = raw.get("layer", {})
    idx = SpanIndex(raw.get("spans", []))
    m = dict(layer)
    hits = layer.get("storage.pool_hits", 0)
    loads = layer.get("storage.pool_loads", 0)
    m["storage.pool_hit_ratio"] = hits / (hits + loads) if hits + loads else 0
    packed = layer.get("scan.packed_blocks", 0)
    decoded = layer.get("scan.decode_blocks", 0)
    m["scan.packed_block_share"] = (packed / (packed + decoded)
                                    if packed + decoded else 0)
    lookups = layer.get("service.cache_lookups", 0)
    m["service.cache_hit_ratio"] = (layer.get("service.cache_hits", 0) /
                                    lookups if lookups else 0)
    m["core.fetch_ms"] = idx.op_total_ms("core.fetch")
    m["storage.partition_read_ms"] = idx.median_ms("storage.read_partition")
    m["compress.decode_mb_s"] = idx.rate_m("compress.deserialize")
    m["compress.encode_mb_s"] = idx.rate_m("compress.serialize")
    m["quantize.decode_mvals_s"] = idx.rate_m("quantize.decode")
    m["quantize.encode_mvals_s"] = idx.rate_m("quantize.encode")
    m["scan.packed_mvals_s"] = idx.rate_m("scan.cmp_packed")
    m["nn.forward_ms"] = idx.median_ms("nn.forward")
    for d in DIAGNOSTICS:
        m["diagnostics.%s_ms" % d] = idx.median_ms("diagnostics." + d)
    m["service.overhead_us"] = idx.op_diff_us("service.call", "core.fetch")
    m["net.wire_us"] = idx.op_diff_us("net.direct", "service.call")
    m["net.encode_us"] = _us(idx.median_ms("net.encode"))
    m["net.decode_us"] = _us(idx.median_ms("net.decode"))
    resp = idx.mean_work("net.encode")
    m["net.resp_kb"] = None if resp is None else resp / 1024.0
    m["cluster.fetch_hop_us"] = idx.op_diff_us("cluster.router", "net.direct")
    m["cluster.scan_hop_us"] = idx.op_diff_us(
        "cluster.router_scan", "net.direct_scan", inner_max=True)
    m["durability.sync_write_ms"] = idx.median_ms("durability.sync_write")
    plain = median([s[2] for s in raw["plain_pass"]["samples"]])
    traced = median([s[2] for s in raw["traced_pass"]["samples"]])
    m["obs.trace_overhead_pct"] = ((traced / plain - 1.0) * 100.0
                                   if plain and traced else None)
    return {name: (m.get(name) if m.get(name) is not None else 0.0)
            for name, _unit, _better in PER_LAYER}


def _us(ms):
    return None if ms is None else ms * 1e3
