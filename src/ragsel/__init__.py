"""ragsel: dual-answer retrieval-augmented QA with model-side answer
selection, preference-pair dataset construction from the disagreements, and
the evaluation machinery to score it all.
"""

from .augment import DpoPair, NeighborSet, augment_dataset, expand, mine_neighbors, similarity
from .corpus import Corpus, Passage, ingest
from .data import QAPair, load_qa_file
from .dpo import DpoConfig, LogProbRecord, dataset_loss, export_training_file, pair_loss
from .errors import RagselError
from .evaluation import accuracy, classify_error, evaluate, exact_match, f1, normalize
from .llm import (
    CachedBackend,
    GenRequest,
    HttpBackend,
    ScriptedBackend,
    fingerprint,
)
from .pipeline import (
    CandidateResponse,
    PromptSet,
    SelectionRecord,
    gen_llm_answer,
    gen_rag_answer,
    parse_response,
    run_dataset,
    select,
)
from .retrieval import (
    Bm25Index,
    RetrievalConfig,
    RetrievalResult,
    build_index,
    tokenize,
)
from .rgp import CandidateBundle, Judgment, PreferenceInstance, build, filter_instance, judge

__version__ = "0.1.0"

__all__ = [
    "Bm25Index",
    "CachedBackend",
    "CandidateBundle",
    "CandidateResponse",
    "Corpus",
    "DpoConfig",
    "DpoPair",
    "GenRequest",
    "HttpBackend",
    "Judgment",
    "LogProbRecord",
    "NeighborSet",
    "Passage",
    "PreferenceInstance",
    "PromptSet",
    "QAPair",
    "RagselError",
    "RetrievalConfig",
    "RetrievalResult",
    "ScriptedBackend",
    "SelectionRecord",
    "accuracy",
    "augment_dataset",
    "build",
    "build_index",
    "classify_error",
    "dataset_loss",
    "evaluate",
    "exact_match",
    "expand",
    "export_training_file",
    "f1",
    "filter_instance",
    "fingerprint",
    "gen_llm_answer",
    "gen_rag_answer",
    "ingest",
    "judge",
    "load_qa_file",
    "mine_neighbors",
    "normalize",
    "pair_loss",
    "parse_response",
    "run_dataset",
    "select",
    "similarity",
    "tokenize",
]
