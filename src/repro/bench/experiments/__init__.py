"""Per-figure experiment drivers.

One module per paper figure/table; each exposes ``run(...) -> dict`` with the
rows/series the paper reports, plus ``main()`` printing them.  Each module
whose figure makes a qualitative claim also has ``claims(result)``, the
paper's shape as named verdicts (``format.claim``); ``run_all`` checks them
on the jsonified result of ``main()``.
"""
