#!/usr/bin/env python3
"""Walkthrough: ingest a passage corpus and query it with the BM25 index.

Everything happens in a temporary directory, removed at the end; run it
from anywhere:

    python demos/01_corpus_and_retrieval.py
"""

import tempfile
from pathlib import Path

from ragsel import Bm25Index, build_index, ingest, tokenize

PASSAGES = [
    {"id": "p01", "title": "Hamlet", "text": "Hamlet is a tragedy written by William Shakespeare around 1600."},
    {"id": "p02", "title": "Macbeth", "text": "Macbeth, another Shakespeare tragedy, dramatises the corrosive cost of ambition."},
    {"id": "p03", "title": "Baking", "text": "An apple pie needs apples, pastry, and patience above all."},
    {"id": "p04", "title": "Orchards", "text": "Apple orchards bloom in spring; the apple harvest lands in autumn."},
    {"id": "p05", "title": "Moon", "text": "Neil Armstrong stepped onto the Moon in July 1969."},
]

tmp = tempfile.TemporaryDirectory(prefix="ragsel-demo1-")
work = Path(tmp.name)
print(f"working directory: {work}\n")

# 1. Ingest. The corpus directory stores the raw records and a byte-offset
#    index for O(1) lookup by id.
corpus = ingest(PASSAGES, work / "corpus")
print(f"ingested {len(corpus)} passages")
print(f"round trip p03 -> {corpus.get('p03').text!r}\n")

# 2. The tokenizer is unicode-alphanumeric runs, lowercased. Only the index
#    tokenizes, so its passage lengths are the one token count there is.
print(f"tokenize('Ctrl+Shift+T') -> {tokenize('Ctrl+Shift+T')}\n")

# 3. Build the index and retrieve. Scores follow the non-negative idf
#    variant ln(1 + (N-df+0.5)/(df+0.5)); zero-scoring passages never pad the
#    result list, and ties break by ascending passage id.
index = build_index(corpus)
print(f"indexed {int(index.postings.lengths.sum())} tokens (avgdl {index.avgdl} per passage)")
for query in ("apple", "shakespeare tragedy", "moon landing", "unrelated words"):
    hits = index.retrieve(query, top_k=3).hits
    rendered = ", ".join(f"{pid}:{score:.3f}" for pid, score in hits) or "(no hits)"
    print(f"retrieve({query!r:28}) -> {rendered}")

# 4. Indexes persist under a directory with a versioned format marker.
index.save(work / "index")
reloaded = Bm25Index.load(work / "index")
assert reloaded.retrieve("apple", 3).to_json() == index.retrieve("apple", 3).to_json()
print(f"\nindex saved and reloaded from {work / 'index'} — identical results")

tmp.cleanup()
