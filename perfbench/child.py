"""Child process for the benchmark: the library client, and the traced entry point.

    python perfbench/child.py [--spans FILE --op N] api DOC QUERIES
    python perfbench/child.py  --spans FILE --op N  cli ARGV...

`api` is a library caller: it reads the interchange document DOC with
`read_interchange`, answers each class-row query in the JSON list QUERIES
(`dit`, `noc`, `cbo` of the class, `afferent` and `efferent` of its package)
and prints one JSON object: the answers, `first_answer_ms` (from the
`read_interchange` call to the first answer) and `query_ms` per query.

`cli` calls `designlens.cli.run(ARGV)` and exits with its code, as the
`designlens` command does.  With `--spans`, the functions designlens modules
import from each other are wrapped first (see tracer.py) and the spans are
written to FILE at exit.  designlens is imported from the `PYTHONPATH` the
benchmark sets.
"""

from __future__ import annotations

import json
import sys
import time


def api_round(doc_path: str, queries_path: str) -> dict:
    import designlens
    from designlens import metrics
    from designlens.model import QualifiedName

    with open(queries_path, encoding="utf-8") as source:
        queries = json.load(source)
    with open(doc_path, "rb") as source:
        document = source.read().decode("utf-8")
    answers, query_ms = [], []
    start = time.perf_counter()
    model = designlens.read_interchange(document)
    first_answer_ms = None
    for query in queries:
        began = time.perf_counter()
        name = QualifiedName(*query.split("."))
        answers.append([metrics.dit(model, name), metrics.noc(model, name), metrics.cbo(model, name),
                        metrics.afferent(model, name.package), metrics.efferent(model, name.package)])
        done = time.perf_counter()
        query_ms.append((done - began) * 1000)
        if first_answer_ms is None:
            first_answer_ms = (done - start) * 1000
    return {"answers": answers, "first_answer_ms": first_answer_ms, "query_ms": query_ms}


def main(argv: list[str]) -> int:
    spans_path, op = None, 0
    while argv and argv[0] in ("--spans", "--op"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--spans":
            spans_path = value
        else:
            op = int(value)
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer(op)
        tracer.install()
    try:
        if argv[0] == "api":
            print(json.dumps(api_round(argv[1], argv[2])))
            return 0
        from designlens import cli

        return cli.run(argv[1:])
    finally:
        if tracer is not None:
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
