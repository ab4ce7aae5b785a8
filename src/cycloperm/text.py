"""The one grammar of the text formats, which every parser reads through.
Whitespace may stand around any mark, separator or integer; an integer
is ASCII digits with an optional leading '-'.  A ``pattern`` template
states a format: '#' is an integer, '&' integers joined by commas, '%' a
raw piece, '{...}' an optional part and '|' separates alternatives; a
letter stands for itself and any other character is a mark."""

import re

_INT = "-?[0-9]+"  # not \d, which takes any Unicode digit
_TEMPLATE = {"#": f"({_INT})", "&": rf"({_INT}(?:\s*,\s*{_INT})*)",
             "{": "(?:", "}": ")?", "|": "|"}
_READ = {"#": int, "&": lambda g: [int(s) for s in g.split(",")]}
# a + or a binary -, which stays on its term (the lookahead speeds the scan)
SUM = r"(?=[+\s-])(?:\+|(?<=[\w)\]])\s*(?=-))"


def split(text: str, sep: str = ",") -> list[str]:
    """Raw pieces of text between matches of the regex sep outside brackets."""
    pieces, depth, start = [], 0, 0
    for m in re.finditer(f"({sep})|[][()]", text):
        if m.lastindex is None:
            depth += 1 if m[0] in "([" else -1
            if depth < 0:
                break
        elif not depth:
            pieces.append(text[start:m.start()])
            start = m.end()
    if depth:
        raise ValueError(f"cannot parse {text!r}: unbalanced brackets")
    return pieces + [text[start:]]


def pattern(template: str, message: str):
    """A reader of the template's texts: it returns the values of the
    template's '#', '&' and '%' in order, None for those in an absent
    part, or raises ValueError(f"{message} {text!r}")."""
    regex, space = "", r"\s*"
    for token in re.findall("[A-Za-z]+|.", template):
        if token in "{}|":
            regex += _TEMPLATE[token]
        elif token == "%":  # whitespace stays in the piece, no \s* beside it
            regex, space = regex + "(.*)", ""
        else:
            regex += space + (_TEMPLATE.get(token) or re.escape(token))
            space = r"\s*"
    regex = rf"(?s:{regex})\s*"
    convs = [(i, _READ[k]) for i, k in enumerate(re.findall("[#&%]", template))
             if k in _READ]

    def read(text: str) -> list:
        nonlocal regex
        if isinstance(regex, str):  # compiled on the first call, not on import
            regex = re.compile(regex)
        m = regex.fullmatch(text)
        if m is None:
            raise ValueError(f"{message} {text!r}")
        out = [*m.groups()]
        for i, conv in convs:
            if out[i] is not None:
                out[i] = conv(out[i])
        return out
    return read
