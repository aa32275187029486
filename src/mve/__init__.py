"""Multi-vector dense retrieval engine.

Documents and queries are represented by one embedding per token. Retrieval
runs in two stages: per-query-embedding candidate generation over an
inverted-file index, then exact MaxSim reranking of the candidate union with
the complete query representation. The number of query embeddings that take
part in the first stage is configurable, with orderings by occurrence or by
collection statistics deciding which ones run first.

Submodules:
    core        tokenization, the deterministic token embedder, lexicon
    index       embedding store, k-means coarse quantizer, IVF, persistence
    retrieval   candidate generation, pruned union, MaxSim reranking
    evaluation  nDCG/MAP/MRR, paired significance tests, the pruning sweep
    engine      configuration and engine-directory assembly
    cli         the ``mve`` command line tool

Importing the package fixes glibc's malloc thresholds (see
``_pin_malloc_thresholds``), so that freed blocks of 4 MB or more leave the
process whatever was allocated before them.
"""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 8 << 20


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap threshold at ``_MMAP_THRESHOLD`` and its trim
    threshold at ``_TRIM_THRESHOLD``; return whether glibc took them.

    By default glibc raises both whenever a mapped block is freed, up to
    32 MB (trim: twice the mmap threshold), and from then on serves smaller
    blocks from the heap, which keeps what is freed there. A whole-store
    gather such as ``EmbeddingStore.vectors`` (15 MB on the desk store) and
    a caller's copies of it then leave a resident heap that depends on the
    order of the blocks freed before: the desk-padded benchmark's peak RSS
    read about 124 or 149 MB on the same code. Fixed, a block of 4 MB or
    more is mapped when allocated and returned when freed, while a desk
    search's arrays (4.4 MB at most in all) stay in the heap. Elsewhere than
    glibc nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    )


_pin_malloc_thresholds()
