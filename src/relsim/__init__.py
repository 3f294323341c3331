"""Corpus-backed relational similarity.

Measures the similarity of semantic relations between word pairs with
128-element phrase-frequency vectors and cosine similarity, and applies it
to multiple-choice verbal analogies and noun-modifier relation
classification.
"""

from .index import (CountMode, Document, HitCount, PhraseQuery,
                    PositionalIndex, TokenPattern, build_index, count_hits,
                    load_corpus, match_token, parse_phrase, tokenize)
from .terms import default_joining_terms, load_joining_terms, terms_checksum
from .vectors import (LocalIndexProvider, RelationVector, WordPair,
                      build_vector, cosine, generate_queries, stem)
from .analogy import (AnalogyQuestion, EvalReport, GuessOutcome,
                      cumulative_top_k, decide, evaluate, load_questions,
                      pool_ranks, rank_pool, raw_sat_score)
from .nounmod import (LabeledNounModifier, group_of, load_labeled_pairs, loocv,
                      macroaverage)
from .cache import VectorCache, load_cache

__version__ = "0.1.0"
