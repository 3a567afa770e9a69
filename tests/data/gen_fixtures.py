"""Deterministic generator for the bundled end-to-end fixtures.

Run from anywhere:

    python3 tests/data/gen_fixtures.py

Writes mini_dump_a.xml, mini_dump_b.xml and history.xml next to itself.
The outputs are committed; a rerun must reproduce them byte for byte, so
the generator sticks to one seeded Random instance consumed in a fixed
order.  Golden outputs for the pipeline stages live under golden/; after
this script, run tests/data/gen_goldens.py, which rewrites every one of
them by running the command-line tool over these inputs.  On an unchanged
tree, a rerun of both leaves git status clean.
"""

import random
from pathlib import Path
from xml.sax.saxutils import escape

HERE = Path(__file__).resolve().parent

SEED = 20260822

VOCAB = (
    "the of and to a in is was for on with as it at by from that this were are "
    "be not or which had but have has they their its near over under after "
    "river stone tower gate wall bridge field road house market square harbor "
    "forest valley hill church school garden mill winter summer spring autumn "
    "north south east west old new long narrow small great dark quiet early "
    "late built held moved grew stood rose fell ran became remained described "
    "recorded reported noted founded opened closed expanded declined traded "
    "population considerable documentation university committee established "
    "procedure agriculture industrial settlement boundary territory municipal "
    "historical cultural monastery cathedral parliament revolution independence "
    "administration development organization observation laboratory residents "
    "travellers merchants pilgrims soldiers farmers masons weavers brewers"
).split()

WEIGHTS = [1.0 / (i + 1) for i in range(len(VOCAB))]

# hand-written pages with every markup feature; their extracted text is
# asserted verbatim in the acceptance suite
DESIGNED_PAGES = [
    (
        "Alpha test page",
        "'''Alpha''' is a [[letter|Greek letter]] used in [[mathematics]].\n"
        "\n"
        "It often denotes the {{sortkey|first}} element &amp; the angle of attack.",
    ),
    (
        "Beta test page",
        "== History ==\n"
        "The project began in the caf&eacute; quarter.\n"
        "* stone walls\n"
        "* iron gates\n"
        "Costs rose beyond &#163; limits.<!-- note -->",
    ),
]


def sentence(rng):
    n = rng.randint(6, 16)
    words = list(rng.choices(VOCAB, WEIGHTS, k=n))
    for j in range(n):
        roll = rng.random()
        if roll < 0.03:
            words[j] = f"[[{words[j]}]]"
        elif roll < 0.045:
            words[j] = f"'''{words[j]}'''"
    if rng.random() < 0.10:
        words.insert(rng.randint(1, n - 1), str(rng.randint(1850, 1999)))
    if rng.random() < 0.05:
        words.insert(rng.randint(1, len(words) - 1), "{{circa}}")
    if rng.random() < 0.04:
        words.insert(rng.randint(1, len(words) - 1), "&amp;")
    if len(words) >= 9 and rng.random() < 0.35:
        words[len(words) // 2] += ","
    words[0] = words[0].capitalize()
    stop = "." if rng.random() < 0.93 else "?"
    return " ".join(words) + stop


def paragraph(rng, low, high):
    return " ".join(sentence(rng) for _ in range(rng.randint(low, high)))


def page_body(rng, lines_range, sents_range):
    lines = [paragraph(rng, *sents_range) for _ in range(rng.randint(*lines_range))]
    return "\n".join(lines)


def xml_page(title, page_id, rev_id, timestamp, editor, text):
    return (
        "<page><title>{}</title><id>{}</id>"
        "<revision><id>{}</id><timestamp>{}</timestamp>"
        "<contributor><username>{}</username></contributor>"
        "<text>{}</text></revision></page>"
    ).format(escape(title), page_id, rev_id, timestamp, escape(editor), escape(text))


def write_dump(path, pages):
    body = "\n".join(pages)
    path.write_text(
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">\n'
        + body
        + "\n</mediawiki>\n",
        encoding="utf-8",
    )


def build_volume(rng, prefix, start_id, count, redirect_slots, lines_range, sents_range, designed=()):
    pages = []
    designed = list(designed)
    for i in range(count):
        page_id = start_id + i
        stamp = f"2021-01-{(i % 28) + 1:02d}T08:00:00Z"
        if i in redirect_slots:
            text = f"#REDIRECT [[{prefix}{start_id:04d} target]]"
            title = f"{prefix}{page_id:04d} redirect"
        elif designed:
            title, text = designed.pop(0)
        else:
            title = f"{prefix}{page_id:04d} {rng.choice(VOCAB)}"
            text = page_body(rng, lines_range, sents_range)
        pages.append(xml_page(title, page_id, page_id * 10, stamp, "Gen", text))
    return pages


# page 901: three mutual revert pairs among four editors.
# designed edit counts W=12 X=10 Y=7 Z=5 give pair weights
# {W,X}=10 {X,Y}=7 {Y,Z}=5; the single heaviest pair is excluded,
# so M = 4 * ((10 + 7 + 5) - 10) = 48.
WAR_TEXTS = {
    "a1": "The tower was built in 1890.",
    "a2": "The tower was built in 1891.",
    "b1": "It stands on the west bank.",
    "b2": "It stands on the east bank.",
    "c1": "Visitors may climb the stairs.",
    "c2": "Visitors may not climb the stairs.",
}

WAR_SEQUENCE = [
    ("W", "a1"), ("X", "a2"), ("W", "a1"), ("X", "a2"),
    ("X", "b1"), ("Y", "b2"), ("X", "b1"), ("Y", "b2"),
    ("Y", "c1"), ("Z", "c2"), ("Y", "c1"), ("Z", "c2"),
] + [("W", f"f{i}") for i in range(10)] \
  + [("X", f"f{i}") for i in range(10, 16)] \
  + [("Y", f"f{i}") for i in range(16, 19)] \
  + [("Z", f"f{i}") for i in range(19, 22)]


def build_history():
    pages = []
    revs = []
    for i, (editor, key) in enumerate(WAR_SEQUENCE):
        text = WAR_TEXTS.get(key, f"Filler edit number {key} adds detail.")
        revs.append(
            "<revision><id>{}</id><timestamp>2021-03-01T10:{:02d}:00Z</timestamp>"
            "<contributor><username>{}</username></contributor>"
            "<text>{}</text></revision>".format(i + 1, i, editor, escape(text))
        )
    pages.append("<page><title>Disputed tower</title><id>901</id>" + "".join(revs) + "</page>")

    calm = []
    for i in range(16):
        editor = "P" if i % 2 == 0 else "Q"
        calm.append(
            "<revision><id>{}</id><timestamp>2021-04-01T09:{:02d}:00Z</timestamp>"
            "<contributor><username>{}</username></contributor>"
            "<text>Calm expansion step {} of the article.</text></revision>".format(
                100 + i, i, editor, i
            )
        )
    pages.append("<page><title>Calm meadow</title><id>902</id>" + "".join(calm) + "</page>")
    return pages


def main():
    rng = random.Random(SEED)
    volume_a = build_volume(
        rng, "A", 1, 100, redirect_slots={40, 75}, lines_range=(2, 3),
        sents_range=(3, 5), designed=DESIGNED_PAGES,
    )
    volume_b = build_volume(
        rng, "B", 101, 100, redirect_slots={50}, lines_range=(3, 5), sents_range=(4, 7),
    )
    write_dump(HERE / "mini_dump_a.xml", volume_a)
    write_dump(HERE / "mini_dump_b.xml", volume_b)
    write_dump(HERE / "history.xml", build_history())
    assert len(WAR_SEQUENCE) + 16 == 50


if __name__ == "__main__":
    main()
