#!/usr/bin/env python3
"""CI smoke test for the serving layer (stird-wire-v2).

Starts stird-serve on examples/tc.dl over a Unix socket and checks the
protocol end to end — not just exit codes:

 1. a pipelined conversation through stird-client --pipeline (every
    request written before any reply is read; the client verifies the
    echoed ids come back in request order): the loaded edges must
    produce exactly the transitive-closure paths, a repeated query must
    be served from the result cache, a retract plus a mixed
    insert/retract load must be incrementally maintained and re-queried
    exactly, and the stats must report the v2 protocol, the tenant, the
    cache counters, the server counters and maintenance health;
 2. a small load generator speaking the framing directly over several
    concurrent connections, recording per-request round-trip latency
    and writing a JSON artifact (p50/p99/max) for CI to upload;
 3. a scrape of the --metrics-port Prometheus endpoint, validated with
    check_observability.py --metrics and cross-checked against the
    conversation (request counts, cache hits); the exposition is written
    next to the latency artifact for CI to upload;
 4. a clean shutdown that terminates the server.

Usage: scripts/serve_smoke.py <stird-serve> <stird-client> [latency.json]
"""

import json
import socket
import struct
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_observability

EDGES = [[1, 2], [2, 3], [3, 4], [4, 5]]
LOADGEN_CONNECTIONS = 8
LOADGEN_QUERIES = 400
POINT_QUERY = {"cmd": "query", "relation": "path", "pattern": [1, None]}


def expected_paths(edges):
    """Transitive closure over the edge list, as sorted string tuples."""
    paths = {(a, b) for a, b in edges}
    while True:
        new = {(a, d) for a, b in paths for c, d in paths if b == c} - paths
        if not new:
            break
        paths |= new
    return sorted([str(a), str(b)] for a, b in paths)


def fail(message):
    print(f"serve_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def send_frame(sock, obj):
    data = json.dumps(obj).encode()
    sock.sendall(struct.pack(">I", len(data)) + data)


def recv_frame(sock):
    buf = b""
    while len(buf) < 4:
        chunk = sock.recv(4 - len(buf))
        if not chunk:
            fail("connection closed mid-frame")
        buf += chunk
    (length,) = struct.unpack(">I", buf)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            fail("connection closed mid-frame")
        body += chunk
    return json.loads(body)


def load_generator(socket_path, artifact):
    """Round-robins point queries over concurrent connections, measuring
    per-request round-trip latency; writes p50/p99 to the artifact."""
    conns = []
    for _ in range(LOADGEN_CONNECTIONS):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(socket_path)
        conns.append(s)

    latencies_us = []
    cached = 0
    for i in range(LOADGEN_QUERIES):
        s = conns[i % len(conns)]
        start = time.perf_counter()
        send_frame(s, POINT_QUERY)
        reply = recv_frame(s)
        latencies_us.append((time.perf_counter() - start) * 1e6)
        if not reply.get("ok"):
            fail(f"load-gen reply not ok: {reply}")
        if reply.get("cached"):
            cached += 1
    for s in conns:
        s.close()

    latencies_us.sort()

    def percentile(p):
        return latencies_us[int(p * (len(latencies_us) - 1))]

    summary = {
        "connections": LOADGEN_CONNECTIONS,
        "queries": LOADGEN_QUERIES,
        "p50_us": round(percentile(0.50), 1),
        "p99_us": round(percentile(0.99), 1),
        "max_us": round(latencies_us[-1], 1),
        "cached_fraction": round(cached / LOADGEN_QUERIES, 4),
    }
    if artifact:
        Path(artifact).parent.mkdir(parents=True, exist_ok=True)
        Path(artifact).write_text(json.dumps(summary, indent=2) + "\n")
    # Everything after the first miss per publish window should hit.
    if cached < LOADGEN_QUERIES // 2:
        fail(f"load-gen cache hit rate too low: {summary}")
    return summary


def free_tcp_port():
    """A TCP port that was free a moment ago (fine for a CI smoke run)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def scrape_metrics(port, expected_requests, artifact, tmp):
    """Fetches /metrics, validates the exposition and cross-checks it
    against the conversation that just happened."""
    url = f"http://127.0.0.1:{port}/metrics"
    with urllib.request.urlopen(url, timeout=30) as response:
        if response.status != 200:
            fail(f"metrics endpoint answered {response.status}")
        content_type = response.headers.get("Content-Type", "")
        if not content_type.startswith("text/plain; version=0.0.4"):
            fail(f"unexpected metrics content type: {content_type}")
        text = response.read().decode()

    scrape_path = Path(tmp) / "metrics.txt"
    scrape_path.write_text(text)
    totals = check_observability.check_metrics(str(scrape_path))

    if totals.get("stird_requests_dispatched_total") != expected_requests:
        fail(f"expected {expected_requests} dispatched requests, endpoint "
             f"reports {totals.get('stird_requests_dispatched_total')}")
    if totals.get("stird_cache_hits_total", 0) < 1:
        fail("endpoint reports no cache hits after the repeat queries")
    if totals.get("stird_maintenance_enabled", 0) != 1:
        fail("endpoint reports maintenance disabled for tc.dl")
    if totals.get("stird_maintenance_batches_total") != 3:
        fail("endpoint does not report three maintained batches")
    if totals.get("stird_maintenance_deleted_total") != 1:
        fail("endpoint does not report the retracted tuple")
    if totals.get("stird_maintenance_fallbacks_total", 0) != 0:
        fail("endpoint reports maintenance fallbacks on an eligible run")
    if "stird_request_latency_micros_bucket" not in text:
        fail("no latency histogram in the scrape")
    if artifact:
        Path(artifact).parent.mkdir(parents=True, exist_ok=True)
        (Path(artifact).parent / "metrics.txt").write_text(text)

    # Anything but GET /metrics is a 404, not a hang or a crash.
    try:
        urllib.request.urlopen(f"http://127.0.0.1:{port}/other", timeout=30)
        fail("unknown metrics target did not answer 404")
    except urllib.error.HTTPError as error:
        if error.code != 404:
            fail(f"unknown metrics target answered {error.code}")


def main():
    if len(sys.argv) not in (3, 4):
        fail(f"usage: {sys.argv[0]} <stird-serve> <stird-client> "
             "[latency.json]")
    serve, client = sys.argv[1], sys.argv[2]
    artifact = sys.argv[3] if len(sys.argv) == 4 else None
    repo = Path(__file__).resolve().parent.parent
    program = repo / "examples" / "tc.dl"

    with tempfile.TemporaryDirectory() as tmp:
        socket_path = str(Path(tmp) / "stird.sock")
        metrics_port = free_tcp_port()
        server = subprocess.Popen(
            [serve, str(program), "--socket", socket_path,
             "--metrics-port", str(metrics_port)],
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            # The server prints its listening line once ready; the socket
            # file appearing is the portable readiness signal.
            for _ in range(200):
                if Path(socket_path).exists():
                    break
                if server.poll() is not None:
                    fail(f"server exited early: {server.stderr.read()}")
                time.sleep(0.05)
            else:
                fail("server never created its socket")

            requests = [
                {"cmd": "load", "facts": {"edge": EDGES}},
                {"cmd": "query", "relation": "path", "pattern": [1, None]},
                {"cmd": "query", "relation": "path"},
                # Identical to the first query: must hit the result cache.
                {"cmd": "query", "relation": "path", "pattern": [1, None]},
                {"cmd": "stats"},
                # Retraction round trip: delete one edge, the closure
                # shrinks; a mixed load restores it while retracting an
                # absent tuple (a counted no-op); the closure is back.
                {"cmd": "retract", "facts": {"edge": [[2, 3]]}},
                {"cmd": "query", "relation": "path"},
                {"cmd": "load", "facts": {"edge": [[2, 3]]},
                 "retract": {"edge": [[9, 9]]}},
                {"cmd": "query", "relation": "path"},
                {"cmd": "stats"},
            ]
            result = subprocess.run(
                [client, "--socket", socket_path, "--pipeline"]
                + [json.dumps(r) for r in requests],
                capture_output=True,
                text=True,
                timeout=60,
            )
            if result.returncode != 0:
                fail(
                    f"client exited {result.returncode}\n"
                    f"stdout: {result.stdout}\nstderr: {result.stderr}"
                )
            replies = [
                json.loads(line)
                for line in result.stdout.splitlines()
                if line.strip()
            ]
            if len(replies) != len(requests):
                fail(f"expected {len(requests)} replies, got {len(replies)}")
            for i, reply in enumerate(replies):
                if not reply.get("ok"):
                    fail(f"reply not ok: {reply}")
                if "micros" not in reply:
                    fail(f"reply lacks micros: {reply}")
                if reply.get("id") != i:
                    fail(f"reply {i} echoed id {reply.get('id')}")

            (load, from1, full, repeat, stats,
             retract, shrunk, mixed, restored, stats2) = replies
            if load["inserted"] != len(EDGES) or load["duplicates"] != 0:
                fail(f"unexpected load counts: {load}")
            if not load["incremental"]:
                fail("tc.dl should be maintained (incremental)")

            want = expected_paths(EDGES)
            if sorted(full["tuples"]) != want:
                fail(f"full query mismatch: {full['tuples']} != {want}")
            want_from1 = [t for t in want if t[0] == "1"]
            if sorted(from1["tuples"]) != want_from1:
                fail(f"bound query mismatch: {from1['tuples']}")
            if from1["plan"]["prefix_len"] < 1:
                fail(f"bound query used no index prefix: {from1['plan']}")

            if from1["cached"]:
                fail("first query must be a cache miss")
            if not repeat["cached"]:
                fail("repeated query must be served from the cache")
            if repeat["tuples"] != from1["tuples"]:
                fail("cached reply diverged from the cold reply")

            if stats["protocol"] != "stird-wire-v2":
                fail(f"unexpected protocol: {stats['protocol']}")
            if stats["tenant"] != "default" or stats["tenants"] != ["default"]:
                fail(f"unexpected tenant routing: {stats}")
            if stats["cache"]["hits"] < 1 or stats["cache"]["misses"] < 1:
                fail(f"unexpected cache counters: {stats['cache']}")
            if stats["server"]["connections_accepted"] < 1:
                fail(f"unexpected server counters: {stats['server']}")
            sizes = {r["name"]: r["size"] for r in stats["relations"]}
            if sizes != {"edge": len(EDGES), "path": len(want)}:
                fail(f"unexpected relation sizes: {sizes}")
            latency = stats["latency"]
            if latency["load"]["count"] != 1 or latency["query"]["count"] != 3:
                fail(f"unexpected latency counts: {latency}")

            # Retraction leg: the closure must shrink to exactly the
            # closure of the remaining edges, then come back.
            if retract["deleted"] != 1 or retract["missing"] != 0:
                fail(f"unexpected retract counts: {retract}")
            if not retract["maintained"] or not retract["incremental"]:
                fail(f"retract was not incrementally maintained: {retract}")
            want_shrunk = expected_paths([e for e in EDGES if e != [2, 3]])
            if sorted(shrunk["tuples"]) != want_shrunk:
                fail(f"post-retract query mismatch: {shrunk['tuples']}")
            if mixed["inserted"] != 1 or mixed["deleted"] != 0 \
                    or mixed["missing"] != 1:
                fail(f"unexpected mixed-load counts: {mixed}")
            if sorted(restored["tuples"]) != want:
                fail(f"re-insert did not restore the closure: "
                     f"{restored['tuples']}")

            maint = stats2["maintenance"]
            if not maint["enabled"]:
                fail(f"tc.dl should be maintenance-eligible: {maint}")
            if maint["batches"] != 3 or maint["deleted"] != 1:
                fail(f"unexpected maintenance telemetry: {maint}")
            if maint["rebuild_fallbacks"] != 0 or maint["fallbacks"]:
                fail(f"unexpected maintenance fallbacks: {maint}")
            if stats2["epoch"] != 3:
                fail(f"expected epoch 3 after three publishes: {stats2}")
            sizes2 = {r["name"]: r["size"] for r in stats2["relations"]}
            if sizes2 != {"edge": len(EDGES), "path": len(want)}:
                fail(f"unexpected relation sizes after retract leg: {sizes2}")

            summary = load_generator(socket_path, artifact)

            scrape_metrics(metrics_port,
                           len(requests) + LOADGEN_QUERIES, artifact, tmp)

            shutdown = subprocess.run(
                [client, "--socket", socket_path,
                 json.dumps({"cmd": "shutdown"})],
                capture_output=True,
                text=True,
                timeout=60,
            )
            if shutdown.returncode != 0:
                fail(f"shutdown failed: {shutdown.stderr}")

            if server.wait(timeout=30) != 0:
                fail(f"server exited nonzero: {server.stderr.read()}")
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    print("serve_smoke: OK "
          f"({len(EDGES)} edges -> {len(expected_paths(EDGES))} paths, "
          "pipelined load/query/stats round-tripped, "
          "retract and mixed load incrementally maintained, "
          f"load-gen p99 {summary['p99_us']}us over "
          f"{LOADGEN_CONNECTIONS} connections, "
          "metrics scrape validated, clean shutdown)")


if __name__ == "__main__":
    main()
