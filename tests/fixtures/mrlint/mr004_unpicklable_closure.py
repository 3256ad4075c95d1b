"""MR004 fixture: an MR closure capturing a file handle.

Exactly one violation: ``mapper`` reads the enclosing ``handle`` bound
to ``open(...)``.  The factory itself opening the file is fine — only
the closure capture is not: fork gives every worker a duplicate.
"""


def make_mapper(path):
    handle = open(path)

    def mapper(line, ctx):
        lookup = handle.read()  # MR004: file handle captured by closure
        ctx.emit((line, len(lookup)), lookup)

    return mapper
