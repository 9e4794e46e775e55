"""One task list shared by the calling process and one forked helper.

``_share_runs`` forks one helper process (the ``fork`` start method is
required), which takes task indices from the front of a shared range while
the caller takes them from its back, and returns every task's result by
index once the helper's one message is in. The harness shares a protocol
call's reference solves and runs this way, and ``datasets.load_sparse``
the row chunks of a long file; each caller joins its helper before it
returns, so at most two processes run at a time.
"""

from __future__ import annotations

import multiprocessing


class HelperExitError(RuntimeError):
    """A forked helper exited without sending its result."""


def _share_runs(attempt, count):
    """Fork one helper that calls ``attempt(i)`` for the task indices it
    takes from the front of the shared range [0, count), while this
    process calls ``attempt`` for those it takes from the back until the
    range is empty; return {index: attempt(index)} for every index once the
    helper's one message is in. The helper inherits ``attempt`` and all
    else through the fork, so a module attribute patched in the parent,
    such as ``_optimizers.run``, is patched in the helper too. It sends its
    results once at the end, so it never stalls on a full pipe while the
    parent runs. An exception the helper raises closes the range, so that
    the parent stops after its current task, and is raised again here; a
    helper that exits without a message raises HelperExitError naming its
    exit code. Before this returns or raises, the helper is terminated if
    it still runs, and always joined (``fork`` start method required)."""
    context = multiprocessing.get_context("fork")
    span = context.Array("q", [0, count])
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_helper_main, args=(sender, span, attempt),
                            daemon=True)
    child.start()
    sender.close()
    try:
        done = _take_tasks(span, True, attempt)
        try:
            message = receiver.recv()
        except EOFError:
            child.join()
            raise HelperExitError("the forked helper exited with code %s and "
                                  "sent no result" % child.exitcode) from None
        child.join()
        if isinstance(message, Exception):
            raise message
        return {**done, **message}
    finally:
        child.terminate()
        child.join()
        receiver.close()


def _take_tasks(span, back, attempt):
    """{index: attempt(index)} for each index taken off the shared range
    [span[0], span[1]) until it is empty: its last one each time when
    ``back``, else its first."""
    done = {}
    while True:
        with span.get_lock():
            lo, hi = span[:]
            if lo == hi:
                return done
            if back:
                i = span[1] = hi - 1
            else:
                i, span[0] = lo, lo + 1
        done[i] = attempt(i)


def _helper_main(sender, span, attempt):
    """Take tasks off ``span``'s front; send their results or the error."""
    try:
        message = _take_tasks(span, False, attempt)
    except Exception as exc:
        with span.get_lock():
            span[0] = span[1]
        message = exc
    sender.send(message)
