"""Extract typed reproduction steps from a bug report's prose.

The model sees the action vocabulary, the primitive shapes, a few worked
examples with their reasoning, and finally the report under test. Only
the numbered bracket list in its answer is parsed; surrounding prose is
ignored, quote styles are normalized, and restated lists are resolved in
favor of the final one. This demo uses a canned transcript response, so
it runs offline and deterministically:

    python3 demos/extract_steps.py
"""
from bugreplay.exemplars import ExemplarCorpus
from bugreplay.extraction import build_extraction_prompt, extract_steps
from bugreplay.llm import TranscriptLlm, estimate_tokens
from bugreplay.steps import BugReport, render_steps

REPORT = BugReport(
    id="issue-112",
    raw_text="""\
1. Open "Playlists" from the home screen
2. Long press the playlist called "Morning mix"
3. Tap delete, then scroll down
4. The app closes itself""",
)

# what a model might answer: reasoning first, then the list that counts,
# in the double-backtick quote style some models like to emit
RESPONSE = """\
Let me work through the report step by step.

1st step opens the playlist section, which maps to a tap on "Playlists".
2nd step is a long press on the "Morning mix" playlist.
3rd step contains two operations joined by "then": a tap on delete and a
downward scroll.
4th step is the crash itself and carries no operation.

1. [Tap] [``Playlists'']
2. [Long-tap] [``Morning mix'']
3. [Tap] [``delete'']
4. [Scroll] [down]"""


def main():
    corpus = ExemplarCorpus.builtin()

    prompt = build_extraction_prompt(REPORT, corpus, budget=4096)
    print(f"Prompt: {len(prompt.segments)} segments, "
          f"{prompt.exemplar_count} exemplars, "
          f"~{estimate_tokens(prompt.rendered)} tokens")
    for segment in prompt.segments:
        print(f"  {segment.kind:<16} {estimate_tokens(segment.text):>5} tokens")
    print()

    llm = TranscriptLlm([RESPONSE])
    steps = extract_steps(REPORT, llm, corpus)
    print("Extracted steps:")
    print(render_steps(steps))


if __name__ == "__main__":
    main()
