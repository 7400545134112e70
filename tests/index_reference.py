"""Reference index build, one document at a time.

corpus.build_index tokenizes the whole corpus in one pass and counts its
postings with one sort. This is the plain path it is held to: each
document's text goes through tokenize alone, terms are numbered by first
appearance, and each document's term frequencies come from a Counter.
"""

from collections import Counter

import numpy as np

from mimicrank.corpus import tokenize


def reference_arrays(documents):
    """(vocabulary terms, postings rows, term offsets, doc lengths) of documents.

    Postings rows are [doc index, term frequency], grouped by term number
    and ascending by doc index within a term, as InvertedIndex keeps them.
    """
    token_lists = [tokenize(doc.text) for doc in documents]
    terms = list(dict.fromkeys(t for tokens in token_lists for t in tokens))
    number = {t: i for i, t in enumerate(terms)}
    rows = sorted((number[t], d, tf) for d, tokens in enumerate(token_lists)
                  for t, tf in Counter(tokens).items())
    offsets = [0] * (len(terms) + 1)
    for term, _, _ in rows:
        offsets[term + 1] += 1
    return (tuple(terms), [[d, tf] for _, d, tf in rows],
            np.cumsum(offsets).tolist(), [len(tokens) for tokens in token_lists])
