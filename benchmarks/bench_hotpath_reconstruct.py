"""Owner, searcher and seat hot paths: reconstruction (naive vs batch
columns), decoding a merged list (group every term vs filter
by the queried term first), splitting (per element vs ``split_many``
columns), packing (per element vs ``pack_many`` columns) and encoding a
served list (first encode vs re-encode).

The read path's arithmetic is Shamir reconstruction. Naive Lagrange
pays the full basis per element — k modular inversions and the basis
products, plus one call, one ``Share`` list and one subset choice each;
``reconstruct_batch`` memoises the Lagrange-at-zero weights per
x-tuple, takes the k share *columns* of a joined list and runs list
passes over plain ints — at k = 2 one pass of ``(a + w1 * (b - a)) %
p`` (the weights sum to 1), above it k multiply-accumulate passes plus
one ``% p`` pass — which is what the searcher's columnar read path
calls once per fetched list (and once per k-subset when it
cross-checks a > k fetch).

Server ``s`` has x = s + 1, and the memo keeps each weight's
least-magnitude representative, so the canonical subset of the first k
servers — x = (1, 2) at k = 2 — multiplies by small ints ((2, -1)),
while a failover subset such as x = (1, 3) has ~p/2-wide weights (3/2
and -1/2 in Z_p). Each configuration is timed over both subsets:
``SUBSETS`` names the slots of each.

This bench times the two paths over the same shares (best of
``REPEATS``, cold weight memo each time), asserts they agree
bit-for-bit, and records ``benchmarks/results/BENCH_hotpath.json``.
``scripts/ci.sh`` runs it as the perf smoke gate, in the same run:
batch must beat naive by ``GATE_BATCH_OVER_NAIVE`` in elements/s over
the canonical subset (ratios only — no absolute number can flake on a
slow machine; the absolute elements/s are recorded beside them, the
failover subset's too).

After reconstruction the searcher decodes a merged list's secrets and
keeps the queried term's postings (Algorithm 2's ``filterElements``).
The decode arm times ``unpack_by_term`` plus the per-term lookup — the
L1's query-independent form, which builds a posting for every secret —
against ``unpack_terms``, which tests the term field first and builds
postings for the survivors only, over one ``ELEMENTS``-secret column
that is half merged-in noise. It asserts equal rows and gates the
filtered decode at ``GATE_FILTERED_OVER_GROUPED`` times faster.

The write path's arithmetic is the other direction: the owner splits a
document's packed elements. ``split`` builds one polynomial, one
coefficient list and n ``Share`` objects per element; ``split_many``
draws the same coefficients and runs Horner's rule once per server over
whole columns. The split arm times both from equally seeded rngs,
asserts share-for-share equality, and gates ``split_many`` at
``GATE_SPLIT_MANY_OVER_SPLIT`` times the per-element elements/s.

Before the split the owner packs each ``(doc_id, term_id, tf)`` into one
secret. The pack arm times ``pack(PostingElement(...))`` per element
against one ``pack_many`` call per document over the same
``PACK_DOCUMENTS`` documents of ``PACK_TERMS`` terms, asserts
value-for-value equality, and gates ``pack_many`` at
``GATE_PACK_MANY_OVER_PACK`` times the per-element elements/s.

A seat serves a list's read snapshot to every lookup until the list's
next write, and the codec memoises a response's packed columns. The
encode arm times a served ``FetchListsResponse``'s first encode (right
after a write) against a re-encode of the same response, asserts equal
bytes, and gates the re-encode at ``GATE_REENCODE_OVER_FIRST`` times
faster.

Run: ``PYTHONPATH=src python -m pytest benchmarks/bench_hotpath_reconstruct.py``
"""

from __future__ import annotations

import json
import random
import time
from itertools import product

from benchmarks.conftest import RESULTS_DIR, emit
from repro.core.posting import PostingElement, PostingElementCodec
from repro.protocol.codec import encode_message
from repro.protocol.messages import FetchListsResponse
from repro.secretsharing.field import DEFAULT_PRIME, PrimeField
from repro.secretsharing.shamir import ShamirScheme, reconstruct_secret
from repro.server.auth import AuthService
from repro.server.groups import GroupDirectory
from repro.server.index_server import IndexServer, PostingListResponse

#: Elements per timed column — enough to dwarf per-call noise while the
#: whole bench stays in the low seconds.
ELEMENTS = 3000
REPEATS = 5

#: (k, n) deployments to sweep: the paper's default-ish 2-of-3 and a
#: wider 3-of-5.
CONFIGS = ((2, 3), (3, 5))

#: The slots reconstructed from, per k: the first k (the canonical
#: subset, small weights), and the first k - 1 plus slot k (the subset a
#: failover of slot k - 1 leaves, ~p/2-wide weights).
SUBSETS = {
    "canonical": lambda k: tuple(range(k)),
    "failover": lambda k: (*range(k - 1), k),
}

#: The column form must beat per-element naive Lagrange over the
#: canonical subset (measured 77-117x under random x's, 48-69x over
#: x = 1..k, where naive got faster too). The product of the two gates it replaced (a per-element
#: weight-cached arm >= 1.25x naive, batch >= 3x that arm), so the
#: bar is no lower than before.
GATE_BATCH_OVER_NAIVE = 3.75
#: Filtering a half-noise list before decoding it must beat decoding
#: every term (measured 1.7-2.3x on one queried term).
GATE_FILTERED_OVER_GROUPED = 1.3
#: Column splitting must beat per-element splitting (measured 3-4x).
GATE_SPLIT_MANY_OVER_SPLIT = 2.0
#: Column packing must beat per-element packing (measured ~10x; ``pack``
#: is itself a one-element ``pack_many``).
GATE_PACK_MANY_OVER_PACK = 1.5
#: The pack arm's corpus: documents of a typical benchmark length.
PACK_DOCUMENTS = 100
PACK_TERMS = 49
#: Re-encoding a served response copies its memoised block; the first
#: encode packs three columns (measured ~40-60x).
GATE_REENCODE_OVER_FIRST = 10.0
#: ``reconstruct_batch`` at k=2 when it was a per-element loop over a
#: mapping of Share lists (PR 3's recorded figure); ROADMAP's "Columnar
#: share path" asked for 5x this.
MAPPING_FORM_ELEMENTS_PER_SEC = 217_532


def _share_columns(k: int, n: int, seed: int, slots: tuple[int, ...]):
    """One scheme, ELEMENTS secrets, and their shares at ``slots`` as
    rows and as columns."""
    rng = random.Random(seed)
    field = PrimeField(DEFAULT_PRIME)
    scheme = ShamirScheme(k=k, n=n, field=field, rng=rng)
    secrets_ = [rng.randrange(field.p) for _ in range(ELEMENTS)]
    rows = [
        [shares[slot] for slot in slots]
        for shares in map(scheme.split, secrets_)
    ]
    xs = [scheme.x_of(slot) for slot in slots]
    y_columns = [[row[j].y for row in rows] for j in range(k)]
    return scheme, secrets_, rows, xs, y_columns


def _best_of(fn, scheme=None):
    best, out = float("inf"), None
    for _ in range(REPEATS):
        if scheme is not None:
            scheme._weight_memo.clear()  # cold memo: pay the basis once
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def _decode_arm() -> tuple[dict, list[str]]:
    """``unpack_by_term`` + lookup vs ``unpack_terms`` on one term."""
    codec = PostingElementCodec()
    draw = random.Random(17)
    term_id = 7
    secrets_ = [
        codec.pack(
            PostingElement(
                doc_id=draw.randrange(codec.spec.max_doc_id),
                # Every other secret is a merged-in term's.
                term_id=term_id if i % 2 else draw.randrange(8, 40),
                tf=draw.uniform(0.01, 1.0),
            )
        )
        for i in range(ELEMENTS)
    ]
    grouped, rows = _best_of(
        lambda: codec.unpack_by_term(secrets_)[0].get(term_id)
    )
    filtered, kept = _best_of(
        lambda: codec.unpack_terms(secrets_, {term_id})[0].get(term_id)
    )
    assert kept == rows and len(rows) == ELEMENTS // 2, (
        "unpack_terms diverged from unpack_by_term"
    )
    ratio = grouped / filtered
    row = {
        "elements": ELEMENTS,
        "kept": len(kept),
        "grouped_us": round(grouped * 1e6, 1),
        "filtered_us": round(filtered * 1e6, 1),
        "filtered_over_grouped": round(ratio, 2),
    }
    lines = [
        f"merged-list decode ({ELEMENTS} secrets, {len(kept)} queried, "
        f"best of {REPEATS}): unpack_by_term {grouped * 1e6:.1f} us, "
        f"unpack_terms {filtered * 1e6:.1f} us ({ratio:.2f}x)",
    ]
    assert ratio >= GATE_FILTERED_OVER_GROUPED, (
        f"filtered decode under {GATE_FILTERED_OVER_GROUPED}x the grouped "
        f"decode: unpack_by_term={grouped * 1e6:.1f}us "
        f"unpack_terms={filtered * 1e6:.1f}us"
    )
    return row, lines


def _split_arm() -> tuple[list[dict], list[str]]:
    """Per-element ``split`` vs ``split_many``, same seed, same shares."""
    rows_out, lines = [], [
        f"split hot path: per-element split vs split_many columns "
        f"({ELEMENTS} secrets, best of {REPEATS})",
    ]
    for k, n in CONFIGS:
        scheme = ShamirScheme(k=k, n=n, rng=random.Random(1000 * k + n))
        draw = random.Random(7)
        secrets_ = [draw.randrange(scheme.field.p) for _ in range(ELEMENTS)]
        seed = 31 * k + n

        def split_each():
            rng = random.Random(seed)
            return [scheme.split(s, rng) for s in secrets_]

        def split_columns():
            return scheme.split_many(secrets_, random.Random(seed))

        per_element, shares = _best_of(split_each, scheme)
        column_form, columns = _best_of(split_columns, scheme)
        assert columns == [
            [row[slot].y for row in shares] for slot in range(n)
        ], f"split_many diverged from split at k={k} n={n}"
        ratio = per_element / column_form
        for path, seconds in (("split", per_element), ("split_many", column_form)):
            rows_out.append(
                {
                    "path": path,
                    "k": k,
                    "n": n,
                    "elements": ELEMENTS,
                    "seconds": round(seconds, 6),
                    "elements_per_sec": round(ELEMENTS / seconds, 1),
                    "speedup_vs_split": round(per_element / seconds, 2),
                }
            )
            lines.append(
                f"k={k} n={n} {path:10s}: {ELEMENTS / seconds:12.0f} "
                f"elem/s  ({per_element / seconds:5.2f}x split)"
            )
        assert ratio >= GATE_SPLIT_MANY_OVER_SPLIT, (
            f"split_many under {GATE_SPLIT_MANY_OVER_SPLIT}x the "
            f"per-element split at k={k} n={n}: split={per_element:.4f}s "
            f"split_many={column_form:.4f}s"
        )
    return rows_out, lines


def _pack_arm() -> tuple[list[dict], list[str]]:
    """Per-element ``pack(PostingElement(...))`` vs ``pack_many``."""
    codec = PostingElementCodec()
    draw = random.Random(11)
    max_term_id = codec.spec.max_term_id
    documents = [
        (
            doc_id,
            [draw.randrange(max_term_id) for _ in range(PACK_TERMS)],
            [draw.randint(1, 9) / 40 for _ in range(PACK_TERMS)],
        )
        for doc_id in range(PACK_DOCUMENTS)
    ]
    elements = PACK_DOCUMENTS * PACK_TERMS

    def pack_each():
        return [
            [
                codec.pack(PostingElement(doc_id, term_id, tf))
                for term_id, tf in zip(term_ids, tfs)
            ]
            for doc_id, term_ids, tfs in documents
        ]

    def pack_columns():
        return [codec.pack_many(*document) for document in documents]

    per_element, packed = _best_of(pack_each)
    column_form, columns = _best_of(pack_columns)
    assert columns == packed, "pack_many diverged from per-element pack"
    rows_out, lines = [], [
        f"pack hot path: per-element pack vs pack_many columns "
        f"({PACK_DOCUMENTS} documents x {PACK_TERMS} terms, best of "
        f"{REPEATS})",
    ]
    for path, seconds in (("pack", per_element), ("pack_many", column_form)):
        rows_out.append(
            {
                "path": path,
                "documents": PACK_DOCUMENTS,
                "terms_per_document": PACK_TERMS,
                "seconds": round(seconds, 6),
                "elements_per_sec": round(elements / seconds, 1),
                "speedup_vs_pack": round(per_element / seconds, 2),
            }
        )
        lines.append(
            f"{path:9s}: {elements / seconds:12.0f} elem/s  "
            f"({per_element / seconds:5.2f}x pack)"
        )
    assert per_element >= column_form * GATE_PACK_MANY_OVER_PACK, (
        f"pack_many under {GATE_PACK_MANY_OVER_PACK}x the per-element "
        f"pack: pack={per_element:.4f}s pack_many={column_form:.4f}s"
    )
    return rows_out, lines


def _encode_arm() -> tuple[dict, list[str]]:
    """First encode of a served list (after a write) vs a re-encode."""
    auth, groups = AuthService(), GroupDirectory()
    groups.create_group(1, coordinator="owner")
    token = auth.issue_token("owner", auth.register_user("owner"))
    server = IndexServer("seat", x_coordinate=1, auth=auth, groups=groups)
    draw = random.Random(13)
    server.insert_batch(
        token,
        [0] * ELEMENTS,
        list(range(ELEMENTS)),
        [1] * ELEMENTS,
        [draw.randrange(DEFAULT_PRIME) for _ in range(ELEMENTS)],
    )
    first = reencode = float("inf")
    for _ in range(REPEATS):
        # A write restamps the list: the second lookup after it keeps a
        # new snapshot, whose first encode packs its columns.
        server.delete(token, [0], [0])
        server.insert_batch(token, [0], [0], [1], [7])
        for _ in range(2):
            (served,) = server.get_posting_lists(token, [0])
        message = FetchListsResponse(lists=(served,))
        start = time.perf_counter()
        blob = encode_message(message)
        first = min(first, time.perf_counter() - start)
        start = time.perf_counter()
        again = encode_message(message)
        reencode = min(reencode, time.perf_counter() - start)
        fresh = PostingListResponse(0, *map(list, served.columns))
        assert again == blob == encode_message(
            FetchListsResponse(lists=(fresh,))
        ), "a re-encode diverged from the first encode"
    ratio = first / reencode
    row = {
        "elements": ELEMENTS,
        "first_encode_us": round(first * 1e6, 1),
        "reencode_us": round(reencode * 1e6, 1),
        "reencode_over_first": round(ratio, 1),
    }
    lines = [
        f"served-list encode ({ELEMENTS} elements, best of {REPEATS}): "
        f"first {first * 1e6:.1f} us, re-encode {reencode * 1e6:.1f} us "
        f"({ratio:.1f}x)",
    ]
    assert ratio >= GATE_REENCODE_OVER_FIRST, (
        f"re-encoding a served list under {GATE_REENCODE_OVER_FIRST}x its "
        f"first encode: first={first * 1e6:.1f}us "
        f"re-encode={reencode * 1e6:.1f}us"
    )
    return row, lines


def test_hotpath_reconstruct_paths(benchmark):
    rows_out = []
    lines = [
        "reconstruction hot path: naive lagrange per element vs batch "
        f"columns ({ELEMENTS} elements, best of {REPEATS})",
    ]
    for (k, n), (subset, slots_of) in product(CONFIGS, SUBSETS.items()):
        scheme, secrets_, rows, xs, y_columns = _share_columns(
            k, n, seed=1000 * k + n, slots=slots_of(k)
        )
        field = scheme.field
        paths = {
            "naive": lambda: [
                reconstruct_secret(shares, k, field, "lagrange")
                for shares in rows
            ],
            "batch": lambda: scheme.reconstruct_batch(xs, y_columns),
        }
        timings = {}
        for name, fn in paths.items():
            seconds, out = _best_of(fn, scheme)
            assert out == secrets_, (
                f"{name} path diverged at k={k} n={n} x={tuple(xs)}"
            )
            timings[name] = seconds
        for name, seconds in timings.items():
            rows_out.append(
                {
                    "path": name,
                    "k": k,
                    "n": n,
                    "subset": subset,
                    "xs": list(xs),
                    "elements": ELEMENTS,
                    "seconds": round(seconds, 6),
                    "elements_per_sec": round(ELEMENTS / seconds, 1),
                    "speedup_vs_naive": round(
                        timings["naive"] / seconds, 2
                    ),
                }
            )
            lines.append(
                f"k={k} n={n} x={str(tuple(xs)):9s} {name:5s}: "
                f"{ELEMENTS / seconds:12.0f} elem/s  "
                f"({timings['naive'] / seconds:7.2f}x naive)"
            )
        if subset != "canonical":
            continue
        assert timings["naive"] > timings["batch"] * GATE_BATCH_OVER_NAIVE, (
            f"column reconstruction under {GATE_BATCH_OVER_NAIVE}x the "
            f"per-element naive path at k={k} n={n}: "
            f"naive={timings['naive']:.4f}s batch={timings['batch']:.4f}s"
        )
    batch_k2 = next(
        row["elements_per_sec"]
        for row in rows_out
        if row["path"] == "batch"
        and row["k"] == 2
        and row["subset"] == "canonical"
    )
    over_mapping_form = round(batch_k2 / MAPPING_FORM_ELEMENTS_PER_SEC, 2)
    lines.append(
        f"k=2 batch columns vs the mapping-form reconstruct_batch it "
        f"replaced ({MAPPING_FORM_ELEMENTS_PER_SEC} elem/s, recorded on "
        f"an earlier machine): {over_mapping_form}x"
    )
    # One benchmarked reference pass for pytest-benchmark's ledger.
    k, n = CONFIGS[0]
    scheme, _, _, xs, y_columns = _share_columns(
        k, n, seed=77, slots=SUBSETS["canonical"](k)
    )
    benchmark.pedantic(
        lambda: scheme.reconstruct_batch(xs, y_columns),
        rounds=1,
        iterations=1,
    )
    decode_row, decode_lines = _decode_arm()
    split_rows, split_lines = _split_arm()
    pack_rows, pack_lines = _pack_arm()
    encode_row, encode_lines = _encode_arm()
    emit(
        "hotpath_reconstruct",
        lines + decode_lines + split_lines + pack_lines + encode_lines,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_hotpath.json").write_text(
        json.dumps(
            {
                "schema": "zerber.bench_hotpath.v8",
                "gates": {
                    "batch_over_naive": GATE_BATCH_OVER_NAIVE,
                    "filtered_over_grouped": GATE_FILTERED_OVER_GROUPED,
                    "split_many_over_split": GATE_SPLIT_MANY_OVER_SPLIT,
                    "pack_many_over_pack": GATE_PACK_MANY_OVER_PACK,
                    "reencode_over_first": GATE_REENCODE_OVER_FIRST,
                },
                "batch_k2_over_mapping_form": {
                    "mapping_form_elements_per_sec": (
                        MAPPING_FORM_ELEMENTS_PER_SEC
                    ),
                    "ratio": over_mapping_form,
                },
                "rows": rows_out,
                "decode_row": decode_row,
                "split_rows": split_rows,
                "pack_rows": pack_rows,
                "encode_row": encode_row,
            },
            indent=2,
        )
        + "\n"
    )
