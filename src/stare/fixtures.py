"""Deterministic synthetic corpora with planted structural clusters.

Five cluster families with disjoint intent/slot labels, disjoint
lexicons, and distinct tree shapes. Within a cluster, records share
most structure (high tree similarity); across clusters all labels
differ, so structural similarity collapses to zero. Utterances reuse
the same lexicons, giving the encoder a learnable signal, and each
token carries POS/DEPS/PT tags for the probing corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .artifacts import atomic_write, write_json
from .corpus import Record, save_corpus

Tagged = list[tuple[str, str]]  # (word, POS tag)


@dataclass
class FixtureSpec:
    per_cluster: int = 20
    dev_per_cluster: int = 3
    seed: int = 0


@dataclass
class FixtureData:
    train: list[Record]
    dev: list[Record]
    tagged: list[Tagged] = field(default_factory=list)


def _pick(rng: np.random.Generator, options: list) -> object:
    return options[int(rng.integers(len(options)))]


# Shared carrier words appear in every cluster, so surface overlap alone
# cannot identify a record's family; the parses never mention them.
_PREFIXES: list[Tagged] = [
    [("hey", "INTJ")], [("okay", "INTJ")], [("please", "INTJ")],
    [("hey", "INTJ"), ("there", "ADV")],
]
_SUFFIXES: list[Tagged] = [
    [("thanks", "INTJ")], [("right", "ADV"), ("away", "ADV")],
    [("for", "ADP"), ("me", "PRON")], [("again", "ADV")],
]


def _with_carriers(rng: np.random.Generator, words: Tagged) -> Tagged:
    prefix = _pick(rng, _PREFIXES)
    suffix = _pick(rng, _SUFFIXES)
    return list(prefix) + list(words) + list(suffix)


_C0_TASKS: list[Tagged] = [
    [("pack", "VERB"), ("boxes", "NOUN")],
    [("grade", "VERB"), ("essays", "NOUN")],
    [("water", "VERB"), ("plants", "NOUN")],
    [("wash", "VERB"), ("towels", "NOUN")],
]
_C0_DAYS = ["monday", "tuesday", "wednesday", "thursday"]


def _c0(rng: np.random.Generator) -> tuple[Tagged, str]:
    task = _pick(rng, _C0_TASKS)
    day = _pick(rng, _C0_DAYS)
    task_text = " ".join(w for w, _ in task)
    variant = int(rng.integers(3))
    if variant == 0:
        words = [("remind", "VERB"), ("me", "PRON"), ("to", "PART"), *task,
                 ("on", "ADP"), (day, "NOUN")]
        parse = (f"[IN:CREATE_ALERT [SL:ALERT_PERSON me ] [SL:ALERT_TASK {task_text} ] "
                 f"[SL:ALERT_DAY on {day} ] ]")
    elif variant == 1:
        words = [("remind", "VERB"), ("me", "PRON"), ("to", "PART"), *task]
        parse = f"[IN:CREATE_ALERT [SL:ALERT_PERSON me ] [SL:ALERT_TASK {task_text} ] ]"
    else:
        words = [("set", "VERB"), ("an", "DET"), ("alert", "NOUN"), ("to", "PART"),
                 *task, ("on", "ADP"), (day, "NOUN")]
        parse = f"[IN:CREATE_ALERT [SL:ALERT_TASK {task_text} ] [SL:ALERT_DAY on {day} ] ]"
    return words, parse


_C1_CITIES = ["oslo", "cairo", "lima", "quito"]
_C1_SEASONS = ["spring", "summer", "autumn", "winter"]


def _c1(rng: np.random.Generator) -> tuple[Tagged, str]:
    city = _pick(rng, _C1_CITIES)
    season = _pick(rng, _C1_SEASONS)
    variant = int(rng.integers(3))
    if variant == 0:
        words = [("how", "ADV"), ("cold", "ADJ"), ("is", "AUX"), (city, "PROPN"),
                 ("in", "ADP"), (season, "NOUN")]
        parse = (f"[IN:FETCH_FORECAST [SL:FORECAST_CITY {city} ] "
                 f"[SL:FORECAST_SEASON {season} ] ]")
    elif variant == 1:
        words = [("does", "AUX"), (city, "PROPN"), ("get", "VERB"), ("cold", "ADJ")]
        parse = f"[IN:FETCH_FORECAST [SL:FORECAST_CITY {city} ] ]"
    else:
        words = [("is", "AUX"), (season, "NOUN"), ("cold", "ADJ")]
        parse = f"[IN:FETCH_FORECAST [SL:FORECAST_SEASON {season} ] ]"
    return words, parse


_C2_TITLES = ["golden hour", "night drive", "blue static", "silver moon"]
_C2_ARTISTS = ["the owls", "river sons", "neon cats", "dust choir"]


def _c2(rng: np.random.Generator) -> tuple[Tagged, str]:
    title = _pick(rng, _C2_TITLES)
    artist = _pick(rng, _C2_ARTISTS)
    title_words: Tagged = [(w, "NOUN") for w in title.split()]
    artist_words: Tagged = [(w, "PROPN") for w in artist.split()]
    variant = int(rng.integers(3))
    if variant == 0:
        words = [("play", "VERB"), *title_words, ("by", "ADP"), *artist_words]
        parse = (f"[IN:START_PLAYBACK [SL:PLAYBACK_ITEM [IN:RESOLVE_TRACK "
                 f"[SL:TRACK_TITLE {title} ] [SL:TRACK_ARTIST {artist} ] ] ] ]")
    elif variant == 1:
        words = [("play", "VERB"), *title_words]
        parse = (f"[IN:START_PLAYBACK [SL:PLAYBACK_ITEM [IN:RESOLVE_TRACK "
                 f"[SL:TRACK_TITLE {title} ] ] ] ]")
    else:
        words = [("queue", "VERB"), ("up", "ADP"), *title_words]
        parse = f"[IN:START_PLAYBACK [SL:PLAYBACK_ITEM {title} ] ]"
    return words, parse


_C3_CONTACTS = ["ravi", "mia", "kenji", "lena", "tomas"]
_C3_DEVICES = ["speakerphone", "headset"]


def _c3(rng: np.random.Generator) -> tuple[Tagged, str]:
    contacts = [_C3_CONTACTS[i] for i in rng.permutation(len(_C3_CONTACTS))]
    device = _pick(rng, _C3_DEVICES)
    variant = int(rng.integers(4))
    if variant == 0:
        c1, c2 = contacts[0], contacts[1]
        words = [("call", "VERB"), (c1, "PROPN"), ("and", "CCONJ"), (c2, "PROPN"),
                 ("using", "VERB"), ("the", "DET"), (device, "NOUN")]
        parse = (f"[IN:PLACE_CALL [SL:CALL_CONTACT {c1} ] [SL:CALL_CONTACT {c2} ] "
                 f"[SL:CALL_DEVICE {device} ] ]")
    elif variant == 1:
        c1 = contacts[0]
        words = [("call", "VERB"), (c1, "PROPN"), ("using", "VERB"), ("the", "DET"),
                 (device, "NOUN")]
        parse = f"[IN:PLACE_CALL [SL:CALL_CONTACT {c1} ] [SL:CALL_DEVICE {device} ] ]"
    elif variant == 2:
        c1, c2, c3 = contacts[0], contacts[1], contacts[2]
        words = [("call", "VERB"), (c1, "PROPN"), (c2, "PROPN"), ("and", "CCONJ"),
                 (c3, "PROPN")]
        parse = (f"[IN:PLACE_CALL [SL:CALL_CONTACT {c1} ] [SL:CALL_CONTACT {c2} ] "
                 f"[SL:CALL_CONTACT {c3} ] ]")
    else:
        c1 = contacts[0]
        words = [("call", "VERB"), (c1, "PROPN")]
        parse = f"[IN:PLACE_CALL [SL:CALL_CONTACT {c1} ] ]"
    return words, parse


_C4_UNITS = ["minutes", "seconds"]
_C4_TAGS = ["pasta", "laundry", "workout", "nap"]


def _c4(rng: np.random.Generator) -> tuple[Tagged, str]:
    n = str(int(rng.integers(5, 90)))
    unit = _pick(rng, _C4_UNITS)
    tag = _pick(rng, _C4_TAGS)
    variant = int(rng.integers(2))
    if variant == 0:
        words = [("start", "VERB"), ("a", "DET"), (n, "NUM"), (unit, "NOUN"),
                 ("countdown", "NOUN")]
        parse = f"[IN:BEGIN_COUNTDOWN [SL:COUNTDOWN_SPAN {n} {unit} ] ]"
    else:
        words = [("start", "VERB"), ("a", "DET"), (n, "NUM"), (unit, "NOUN"),
                 ("countdown", "NOUN"), ("for", "ADP"), (tag, "NOUN")]
        parse = (f"[IN:BEGIN_COUNTDOWN [SL:COUNTDOWN_SPAN {n} {unit} ] "
                 f"[SL:COUNTDOWN_TAG {tag} ] ]")
    return words, parse


_BUILDERS = [_c0, _c1, _c2, _c3, _c4]


# A pair is (no verb earlier in the sentence, a verb earlier).
_DEPS_MAP = {"VERB": ("ROOT", "COMP"), "NOUN": ("NSUBJ", "OBJ"), "PROPN": ("NSUBJ", "OBJ"),
             "PRON": "NSUBJ", "ADP": "CASE", "DET": "DET", "NUM": "NMOD", "PUNCT": "PUNCT",
             "PART": "MARK", "AUX": "AUX", "ADV": "ADVMOD", "ADJ": "MOD", "CCONJ": "CONJ"}


def deps_labels(pos_tags: list[str]) -> list[str]:
    out = []
    seen_verb = False
    for tag in pos_tags:
        label = _DEPS_MAP.get(tag, "DEP")
        out.append(label if isinstance(label, str) else label[seen_verb])
        seen_verb |= tag == "VERB"
    return out


_PT_MAP = {"NOUN": "NP", "PROPN": "NP", "PRON": "NP", "DET": "NP", "VERB": "VP",
           "AUX": "VP", "ADP": "PP", "NUM": "QP", "ADJ": "ADJP", "ADV": "ADVP"}


def pt_labels(pos_tags: list[str]) -> list[str]:
    return [_PT_MAP.get(tag, "O") for tag in pos_tags]


def generate(spec: FixtureSpec = FixtureSpec()) -> FixtureData:
    """Build the planted-cluster corpus; fully determined by the seed."""
    rng = np.random.default_rng(spec.seed)
    train: list[Record] = []
    dev: list[Record] = []
    tagged: list[Tagged] = []
    for c, build in enumerate(_BUILDERS):
        for split, n, prefix in ((train, spec.per_cluster, ""),
                                 (dev, spec.dev_per_cluster, "dev_")):
            for i in range(n):
                words, parse = build(rng)
                words = _with_carriers(rng, words)
                rid = f"{prefix}c{c}_{i:03d}"
                split.append(Record(rid, " ".join(w for w, _ in words), parse))
                if split is train:
                    tagged.append(words)
    return FixtureData(train=train, dev=dev, tagged=tagged)


_LABELERS = {"POS": list, "DEPS": deps_labels, "PT": pt_labels}


def write_token_label_file(tagged: list[Tagged], path: Path, prop: str) -> None:
    if prop not in _LABELERS:
        raise ValueError(f"unknown property {prop!r}")
    lines = []
    for words in tagged:
        labels = _LABELERS[prop]([tag for _, tag in words])
        lines.extend(f"{word}\t{label}" for (word, _), label in zip(words, labels))
        lines.append("")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_fixture(out_dir: str | Path, spec: FixtureSpec = FixtureSpec()) -> dict:
    """Write corpora, probe label files, and a ready-to-run config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = generate(spec)
    save_corpus(data.train, out / "train.jsonl")
    save_corpus(data.dev, out / "dev.jsonl")
    for prop, fname in (("POS", "pos.tsv"), ("DEPS", "deps.tsv"), ("PT", "pt.tsv")):
        write_token_label_file(data.tagged, out / fname, prop)
    config = {
        "corpus": {"train": "train.jsonl", "dev": "dev.jsonl", "dialect": "bracketed"},
        "bucketing": {"num_hashes": 128, "tau": 0.5, "seed": 7},
        "mining": {"n_hard": 3, "n_rand": 2, "seed": 13, "anonymize": False},
        "encoder": {"d": 64, "layers": 4, "heads": 4, "max_len": 64, "seed": 1},
        "training": {"epochs": 3, "lr": 3e-4, "weight_decay": 0.01, "batch": 5,
                     "temperature": 0.07, "seed": 2},
        "mli": {"layers": [2, 3, 4], "properties": ["POS", "DEPS", "PT"],
                "lambdas": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0],
                "label_corpora": {"POS": "pos.tsv", "DEPS": "deps.tsv", "PT": "pt.tsv"},
                "probe": {"epochs": 300, "lr": 0.5, "l2": 1e-4}, "k": 5},
        "retrieval": {"k": 5},
        "prompt": {"task_name": "Fixture", "k": 1, "template": "conversational"},
    }
    write_json(out / "config.json", config, indent=2)
    return config
