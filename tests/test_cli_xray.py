#!/usr/bin/env python3
"""End-to-end CLI checks for the X-ray / observability surface.

Run as: test_cli_xray.py <path-to-alp-binary>

Covers the satellite paths a unit test can't: the explain command's text
and JSON renderings on a real file, --metrics=json|text emission,
--trace capture producing parseable Chrome trace_event JSON, and the
float32 compress/inspect/explain fallback. Registered in
tests/CMakeLists.txt so it runs under ctest in both ALP_OBS builds (the
OFF build must yield identical explain output and a valid empty trace).

Standard library only; exits nonzero on the first failure.
"""

import json
import re
import subprocess
import sys
import tempfile
import os


def run(cli, args, expect_rc=0):
    wanted = expect_rc if isinstance(expect_rc, tuple) else (expect_rc,)
    proc = subprocess.run([cli] + args, capture_output=True, text=True)
    if proc.returncode not in wanted:
        sys.exit(
            f"FAIL: alp {' '.join(args)} exited {proc.returncode} "
            f"(wanted {expect_rc})\nstdout:\n{proc.stdout}\n"
            f"stderr:\n{proc.stderr}")
    return proc


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: test_cli_xray.py <path-to-alp-binary>")
    cli = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="alp_cli_xray.") as tmp:
        raw = os.path.join(tmp, "data.bin")
        col = os.path.join(tmp, "data.alp")
        col32 = os.path.join(tmp, "data32.alp")
        back = os.path.join(tmp, "back.bin")
        trace = os.path.join(tmp, "trace.json")

        # A deterministic surrogate dataset, large enough for 2+ vectors.
        run(cli, ["gen", "City-Temp", "4096", raw])

        # --- compress with metrics + trace active ------------------------
        proc = run(cli, ["--threads=2", f"--trace={trace}",
                         "--metrics=json", "compress", raw, col])
        check(os.path.exists(col), "compress produced no output file")

        # The metrics snapshot is the last stdout line and must be JSON.
        metrics_line = proc.stdout.strip().splitlines()[-1]
        metrics = json.loads(metrics_line)
        check("counters" in metrics and "stages" in metrics,
              "--metrics=json snapshot missing sections")

        # The trace must parse as Chrome trace_event JSON. With ALP_OBS
        # compiled in it carries complete events; an OFF build writes a
        # valid empty capture — both are acceptable here, the OBS-ON CI
        # lane asserts non-emptiness via the bench smoke job.
        with open(trace, "r", encoding="utf-8") as f:
            tdoc = json.load(f)
        check(isinstance(tdoc.get("traceEvents"), list),
              "trace file has no traceEvents array")
        for event in tdoc["traceEvents"]:
            check(event.get("ph") in ("X", "M"), f"bad trace event {event}")
            if event["ph"] == "X":
                check(event["ts"] >= 0 and event["dur"] >= 0,
                      f"negative timing in {event}")

        # --- metrics text mode -------------------------------------------
        proc = run(cli, ["--metrics=text", "inspect", col])
        check("== metrics" in proc.stdout, "--metrics=text emitted no table")
        check(re.search(r"type:\s+float64", proc.stdout),
              "inspect lost the type line")

        # --- explain: text and JSON --------------------------------------
        proc = run(cli, ["explain", col])
        text = proc.stdout
        for needle in ("alp x-ray", "100.0%", "rowgroup", "bits/value"):
            check(needle in text, f"explain text missing {needle!r}")

        proc = run(cli, ["explain", col, "--json", "--top=3"])
        xdoc = json.loads(proc.stdout)
        check(xdoc.get("alp_xray") == 1, "explain JSON missing schema marker")
        file_size = os.path.getsize(col)
        check(xdoc["file_size"] == file_size, "explain file_size mismatch")
        check(xdoc["streams"]["total"] == file_size,
              "stream accounting does not sum to the file size")
        check(xdoc["value_count"] == 4096, "explain value_count mismatch")
        check(len(xdoc["outliers"]) <= 3, "--top=3 not honored")

        # --top=0 lists every vector.
        proc = run(cli, ["explain", col, "--json", "--top=0"])
        xdoc = json.loads(proc.stdout)
        check(len(xdoc["outliers"]) == xdoc["vector_count"],
              "--top=0 should list every vector")

        # --- float32 fallback --------------------------------------------
        run(cli, ["--float32", "compress", raw, col32])
        proc = run(cli, ["inspect", col32])
        check(re.search(r"type:\s+float32", proc.stdout),
              "float32 inspect fallback broken")
        proc = run(cli, ["explain", col32, "--json"])
        check(json.loads(proc.stdout)["type"] == "float",
              "float32 explain fallback broken")
        run(cli, ["decompress", col32, back])
        check(os.path.getsize(back) == 4096 * 8,
              "float32 decompress wrote wrong value count")

        # --- exit-code contract ------------------------------------------
        # Every Status class maps to its own documented exit code (see the
        # table in tools/alp_cli.cc): 2 usage, 10 TRUNCATED, 11 CORRUPT,
        # 12 CHECKSUM_MISMATCH, 14 IO, 18 NOT_FOUND, 19 INVALID_ARGUMENT
        # (no CLI command issues a request that can raise it today).
        # Scripts branch on these, so they are part of the CLI's public
        # interface.
        run(cli, [], expect_rc=2)                      # Usage error.
        run(cli, ["frobnicate"], expect_rc=2)          # Unknown command.
        missing = os.path.join(tmp, "missing.alp")
        run(cli, ["explain", raw], expect_rc=11)       # Not a column: CORRUPT.
        run(cli, ["explain", missing], expect_rc=14)   # Unreadable: IO.
        run(cli, ["inspect", missing], expect_rc=14)
        run(cli, ["decompress", missing, back], expect_rc=14)
        run(cli, ["gen", "No-Such-Dataset", "128", back], expect_rc=18)

        with open(col, "rb") as f:
            blob = bytearray(f.read())
        # Truncation mid-payload: TRUNCATED, or CORRUPT/CHECKSUM_MISMATCH
        # depending on which validation phase trips first at the cut point
        # — always a dedicated nonzero code, never the generic 1.
        cut = os.path.join(tmp, "cut.alp")
        with open(cut, "wb") as f:
            f.write(blob[:len(blob) // 2])
        run(cli, ["inspect", cut], expect_rc=(10, 11, 12))
        # A flipped payload byte: CHECKSUM_MISMATCH (or CORRUPT when the
        # flip lands in structural metadata instead of data).
        flipped = os.path.join(tmp, "flipped.alp")
        blob[len(blob) // 2] ^= 0xFF
        with open(flipped, "wb") as f:
            f.write(blob)
        run(cli, ["inspect", flipped], expect_rc=(11, 12))

        # --- stats: decoded-vector cache counters ------------------------
        # The stats profile runs a cold+warm out-of-core pass through a
        # SeekableReader sharing a DecodedVectorCache, so the cache line
        # must show equal hits and misses (pass 2 hits exactly what pass 1
        # missed) and a non-empty resident set.
        proc = run(cli, ["--threads=2", "stats", raw])
        m = re.search(
            r"cache: hits (\d+) \| misses (\d+) \| evictions (\d+) \| "
            r"(\d+) entries, (\d+) bytes resident", proc.stdout)
        check(m, "stats missing the cache counter line")
        hits, misses, evictions, entries, resident = map(int, m.groups())
        check(hits == misses and hits > 0,
              f"stats cache warm pass should hit what the cold pass missed "
              f"(hits={hits} misses={misses})")
        check(evictions == 0, "stats cache evicted under a 64MiB budget")
        check(entries > 0 and resident > 0, "stats cache retained nothing")

        # --- serve-bench smoke -------------------------------------------
        proc = run(cli, ["--threads=2", "serve-bench", raw,
                         "--requests=200", "--queue=64"])
        for needle in ("serve-bench: 200 requests", "point_lookup",
                       "aggregate", "scan", "admitted"):
            check(needle in proc.stdout, f"serve-bench missing {needle!r}")
        check(re.search(r"admitted (\d+)/200", proc.stdout),
              "serve-bench admission counters missing")
        run(cli, ["serve-bench", missing], expect_rc=14)

        # --- serve-bench --catalog-bytes-limit ---------------------------
        # With a byte budget the catalog's shared cache absorbs repeated
        # decodes: the stats line must reflect the configured limit and
        # show cache traffic (hits dominate once the catalog is warm).
        proc = run(cli, ["--threads=2", "serve-bench", raw,
                         "--requests=200", "--queue=64",
                         "--catalog-bytes-limit=8388608"])
        m = re.search(
            r"cache: limit (\d+) bytes \| hits (\d+) \| misses (\d+) \| "
            r"evictions (\d+) \| (\d+) entries, (\d+) bytes resident",
            proc.stdout)
        check(m, "serve-bench missing the cache stats line")
        limit, hits, misses, _evictions, entries, resident = map(int, m.groups())
        check(limit == 8388608, "serve-bench cache limit not echoed")
        check(hits > 0 and misses > 0, "serve-bench cache saw no traffic")
        check(hits > misses, "a warm 8MiB catalog cache should mostly hit")
        check(0 < resident <= limit,
              f"cache resident bytes {resident} outside (0, {limit}]")
        check(entries > 0, "serve-bench cache retained nothing")

        # Limit 0 turns caching off entirely: the line must report zero
        # traffic and zero residency (requests still succeed through the
        # chunked reader).
        proc = run(cli, ["--threads=2", "serve-bench", raw,
                         "--requests=100", "--queue=64",
                         "--catalog-bytes-limit=0"])
        m = re.search(
            r"cache: limit 0 bytes \| hits (\d+) \| misses (\d+) \| "
            r"evictions (\d+) \| (\d+) entries, (\d+) bytes resident",
            proc.stdout)
        check(m, "serve-bench cache-off stats line missing")
        hits, _misses, evictions, entries, resident = map(int, m.groups())
        check(hits == 0 and evictions == 0 and entries == 0 and resident == 0,
              "capacity-0 cache must be inert")
        # Bad option values exit 1 (same contract as --requests/--queue).
        run(cli, ["serve-bench", raw, "--catalog-bytes-limit=-1"],
            expect_rc=1)

    print("cli x-ray: all checks passed")


if __name__ == "__main__":
    main()
