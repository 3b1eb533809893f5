"""Structure-aware exemplar retrieval for semantic-parsing prompts."""

from .bucketing import LshIndex, extract_features, lsh_params, minhash
from .corpus import Corpus, Record, load_corpus, save_corpus
from .encoder import EncoderConfig, InjectionDirection, TrainConfig, embed, forward, train
from .mining import ContrastiveGroup, MiningConfig, Pool, mine_all, mine_group
from .mli import SweepGrid, TokenLabelCorpus, extract_direction, sweep, train_probe
from .retrieval import PromptSpec, RetrievalIndex, build_index, build_prompt, topk
from .ted import sim_struct, ted
from .trees import (ParseDialect, ParseTree, anonymize_leaves, parse, parse_bracketed,
                    parse_sexpr, parse_sql_skeleton)

__version__ = "0.1.0"

__all__ = [
    "Corpus", "ContrastiveGroup", "EncoderConfig", "InjectionDirection",
    "LshIndex", "MiningConfig", "ParseDialect", "ParseTree", "Pool", "PromptSpec",
    "Record", "RetrievalIndex", "SweepGrid", "TokenLabelCorpus", "TrainConfig",
    "anonymize_leaves", "build_index", "build_prompt", "embed",
    "extract_direction", "extract_features", "forward", "load_corpus",
    "lsh_params", "mine_all", "mine_group", "minhash", "parse", "parse_bracketed",
    "parse_sexpr", "parse_sql_skeleton", "save_corpus", "sim_struct", "sweep", "ted",
    "topk", "train", "train_probe",
]
