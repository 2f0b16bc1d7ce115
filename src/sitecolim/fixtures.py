"""Human-writable fixture files.

A fixture file starts with the header line `%fixture 1` and contains named
blocks introduced by `[kind name]`.  Tokens are whitespace-separated; `#`
starts a comment.  Blocks may reference names defined earlier in the same
file or in the environment passed as parse's `env` argument.  Printing is
canonical: parse -> print is byte-stable on its own output.

Block kinds and their lines:

  [category NAME]     object, mor f : a -> b, id o = f, comp g . f = h,
                      terminal t, tmap o = f, product a b = p p1 p2,
                      equalizer f g = e m, cover o : [m1 m2 ...], generator o
  [twocat NAME]       object, mor, id, comp (1-cells), twocell g : u => v,
                      twoid u = g, vcomp d . g = e, hcomp d * g = e
  [functor NAME]      source C, target D, obj a -> x, mor f -> g
  [nattrans NAME]     source F, target G, at a = m
  [diagram NAME]      index T, orientation covariant|op, fiber A = C,
                      transition u = F, cell g = N, generators A : a b
  [cone NAME]         diagram D, vertex X, leg A = F, coh u = N
  [presheaf NAME]     category C, set a : e1 e2, map f e = e'

Parsing validates each block as it is built, before anything is derived
from it, and records the violations on the environment.  A category is
checked table, limit assignment, site; a diagram index, fibers, 2-functor
and generator sets.  A block that names a block with violations inherits
its first one under the naming line (`index chain3: ...`,
`fiber 0 (two): ...`) and derives nothing more: no identity transitions,
2-cells or coherences, no empty presheaf sets.  An entry at a name the
block's category, index or diagram lacks is a violation.  Malformed lines
(an empty block name among them), unknown block names and a line that sets
an entry an earlier line of its block set raise FixtureError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import (FinCat, Functor, NatTrans, identity_functor, identity_nat,
                   once_per_object, validate_category, validate_functor,
                   validate_nat_trans)
from .cones import Pseudocone, check_pseudocone
from .errors import FixtureError
from .limits import LimitAssignment, validate_assignment
from .sites import Presheaf, Site, validate_presheaf, validate_site
from .twocat import (TwoCat, TwoDiagram, check_two_functor, opposite_two_cat,
                     validate_two_cat)

HEADER = "%fixture 1"


@dataclass
class CategoryBlock:
    cat: FinCat
    limits: LimitAssignment | None = None
    covers: dict[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)
    generators: frozenset = frozenset()

    @cached_property
    def site(self) -> Site:
        """The site the block presents, made on first access; the same
        object every time after."""
        if self.limits is None:
            raise FixtureError("category %s has no limit assignment; "
                               "cannot form a site" % self.cat.name)
        gens = self.generators or frozenset(self.cat.objects)
        return Site(self.cat, self.limits, dict(self.covers), gens)


@dataclass
class DiagramBlock:
    diagram: TwoDiagram
    generators: dict[str, frozenset] = field(default_factory=dict)
    fiber_blocks: dict[str, CategoryBlock] = field(default_factory=dict)


class Environment(dict):
    """name -> parsed value (CategoryBlock, TwoCat, Functor, NatTrans,
    DiagramBlock, Pseudocone, Presheaf).  `violations` maps each name to
    its block's violations as (where, message) pairs; where is None, or the
    naming line through which the message was inherited.  A block holds
    iff its list is empty.  `presheaf_blocks` maps each presheaf's name to
    the category block its `category` line named, which a later block of
    the same name does not replace."""

    def __init__(self, blocks=(), violations=None, presheaf_blocks=None):
        super().__init__(blocks)
        self.violations = dict(violations or {})
        self.presheaf_blocks = dict(presheaf_blocks or {})

    def lookup(self, name, kinds, line):
        v = self.get(name)
        if v is None:
            raise FixtureError("unknown name %s" % name, line)
        if kinds and not isinstance(v, kinds):
            raise FixtureError("%s is a %s, not one of %s"
                               % (name, type(v).__name__,
                                  "/".join(k.__name__ for k in kinds)), line)
        return v


def _tokens(text):
    for i, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield i, tokens


def parse(text: str, env: Environment | None = None) -> Environment:
    """Parse a fixture file into (a copy of) the environment."""
    env = (Environment() if env is None else
           Environment(env, env.violations, env.presheaf_blocks))
    lines = list(_tokens(text))
    if not lines or lines[0][1] != HEADER.split():
        raise FixtureError("missing '%s' header" % HEADER,
                           lines[0][0] if lines else 1)
    blocks = []
    cur = None
    for ln, toks in lines[1:]:
        if toks[0].startswith("["):
            if len(toks) != 2 or toks[1] == "]" or not toks[1].endswith("]"):
                raise FixtureError("malformed block header", ln)
            cur = (toks[0][1:], toks[1][:-1], ln, [])
            blocks.append(cur)
        else:
            if cur is None:
                raise FixtureError("content before first block", ln)
            cur[3].append((ln, toks))
    defined = set()
    for kind, name, ln, body in blocks:
        builder = _BUILDERS.get(kind)
        if builder is None:
            raise FixtureError("unknown block kind %s" % kind, ln)
        if name in defined:
            raise FixtureError("block name %s repeated in one file" % name,
                               ln)
        defined.add(name)
        _check_repeats(body)
        env[name], env.violations[name] = builder(name, ln, body, env)
    return env


def _check_repeats(body):
    """Raise on a line that sets an entry an earlier line of the block set:
    its keyword and the names before its first `:`, `=` or `->`, or the
    keyword alone on a line with none of them.  object, generator and
    cover lines add an entry each and may repeat."""
    first = {}  # entry -> the line that set it
    for ln, t in body:
        if t[0] in {"object", "generator", "cover"}:
            continue
        for end, tok in enumerate(t):
            if tok in {":", "=", "->"}:
                break
        else:
            end = 1
        key = " ".join(t[:end])
        if key in first:
            raise FixtureError("%s repeats line %d" % (key, first[key]), ln)
        first[key] = ln


def _own(messages):
    return [(None, msg) for msg in messages]


def _inherited(env, named):
    """The first violation of the first block among `named`, (where, block
    name) pairs, that has any, as [(where, message)]; [] when all hold."""
    for where, name in named:
        for inner, msg in env.violations.get(name, ())[:1]:
            return [(where, "%s: %s" % (inner, msg) if inner else msg)]
    return []


def _expect(cond, msg, ln):
    if not cond:
        raise FixtureError(msg, ln)


def _core_line(tables, ln, t):
    """Read an object, mor, id or comp line into tables, the FinCat
    arguments after the name; False for any other line.  Shared by
    category and twocat blocks."""
    objects, mor_src, mor_tgt, identities, comp = tables
    if t[0] == "object":
        _expect(len(t) == 2, "object takes one name", ln)
        objects.append(t[1])
    elif t[0] == "mor":
        _expect(len(t) == 6 and t[2] == ":" and t[4] == "->",
                "mor f : a -> b", ln)
        mor_src[t[1]], mor_tgt[t[1]] = t[3], t[5]
    elif t[0] == "id":
        _expect(len(t) == 4 and t[2] == "=", "id o = f", ln)
        identities[t[1]] = t[3]
    elif t[0] == "comp":
        _expect(len(t) == 6 and t[2] == "." and t[4] == "=",
                "comp g . f = h", ln)
        comp[(t[1], t[3])] = t[5]
    else:
        return False
    return True


def _parse_category(name, head, body, env):
    tables = [], {}, {}, {}, {}
    terminal, tmap, products, equalizers = None, {}, {}, {}
    covers, generators = {}, set()
    for ln, t in body:
        if _core_line(tables, ln, t):
            continue
        if t[0] == "terminal":
            _expect(len(t) == 2, "terminal t", ln)
            terminal = t[1]
        elif t[0] == "tmap":
            _expect(len(t) == 4 and t[2] == "=", "tmap o = f", ln)
            tmap[t[1]] = t[3]
        elif t[0] == "product":
            _expect(len(t) == 7 and t[3] == "=", "product a b = p p1 p2", ln)
            products[(t[1], t[2])] = (t[4], t[5], t[6])
        elif t[0] == "equalizer":
            _expect(len(t) == 6 and t[3] == "=", "equalizer f g = e m", ln)
            equalizers[(t[1], t[2])] = (t[4], t[5])
        elif t[0] == "cover":
            _expect(len(t) >= 3 and t[2] == ":", "cover o : m1 ...", ln)
            covers.setdefault(t[1], []).append(tuple(t[3:]))
        elif t[0] == "generator":
            _expect(len(t) == 2, "generator o", ln)
            generators.add(t[1])
        else:
            raise FixtureError("unknown category line %s" % t[0], ln)
    cat = FinCat(name, *tables)
    limits = None
    if terminal is not None or tmap or products or equalizers:
        limits = LimitAssignment(cat, terminal, tmap, products, equalizers)
    block = CategoryBlock(cat, limits,
                          {c: tuple(fs) for c, fs in covers.items()},
                          frozenset(generators))
    bad = validate_category(cat)
    if not bad:  # later checks assume a category
        bad = [] if limits is None else validate_assignment(limits)
        if block.covers or block.generators:
            gens = block.generators or frozenset(cat.objects)
            bad += validate_site(Site(cat, limits, block.covers, gens))
    return block, _own(bad)


def _parse_twocat(name, head, body, env):
    tables = [], {}, {}, {}, {}
    two_src, two_tgt, two_id, vcomp, hcomp = {}, {}, {}, {}, {}
    for ln, t in body:
        if _core_line(tables, ln, t):
            continue
        if t[0] == "twocell":
            _expect(len(t) == 6 and t[2] == ":" and t[4] == "=>",
                    "twocell g : u => v", ln)
            two_src[t[1]], two_tgt[t[1]] = t[3], t[5]
        elif t[0] == "twoid":
            _expect(len(t) == 4 and t[2] == "=", "twoid u = g", ln)
            two_id[t[1]] = t[3]
        elif t[0] == "vcomp":
            _expect(len(t) == 6 and t[2] == "." and t[4] == "=",
                    "vcomp d . g = e", ln)
            vcomp[(t[1], t[3])] = t[5]
        elif t[0] == "hcomp":
            _expect(len(t) == 6 and t[2] == "*" and t[4] == "=",
                    "hcomp d * g = e", ln)
            hcomp[(t[1], t[3])] = t[5]
        else:
            raise FixtureError("unknown twocat line %s" % t[0], ln)
    A = TwoCat(name, FinCat(name + ".1", *tables), two_src, two_tgt, two_id,
               vcomp, hcomp)
    return A, _own(validate_two_cat(A))


def _ref(env, t, ln, named, kinds=()):
    """The block named by a one-name line such as `source C`; the line and
    the name go on `named`, the blocks whose violations are inherited."""
    _expect(len(t) == 2, "%s takes one name" % t[0], ln)
    named.append((" ".join(t), t[1]))
    return env.lookup(t[1], kinds, ln)


def _cat_of(value, where, ln):
    if isinstance(value, CategoryBlock):
        return value.cat
    raise FixtureError("%s must name a category" % where, ln)


def _parse_functor(name, head, body, env):
    ends, obj_map, mor_map, named = {}, {}, {}, []
    for ln, t in body:
        if t[0] in ("source", "target"):
            ends[t[0]] = _cat_of(_ref(env, t, ln, named), t[0], ln)
        elif t[0] == "obj":
            _expect(len(t) == 4 and t[2] == "->", "obj a -> x", ln)
            obj_map[t[1]] = t[3]
        elif t[0] == "mor":
            _expect(len(t) == 4 and t[2] == "->", "mor f -> g", ln)
            mor_map[t[1]] = t[3]
        else:
            raise FixtureError("unknown functor line %s" % t[0], ln)
    _expect(len(ends) == 2, "functor needs source and target", head)
    F = Functor(name, ends["source"], ends["target"], obj_map, mor_map)
    return F, _inherited(env, named) or _own(validate_functor(F))


def _parse_nattrans(name, head, body, env):
    ends, components, named = {}, {}, []
    for ln, t in body:
        if t[0] in ("source", "target"):
            ends[t[0]] = _ref(env, t, ln, named, (Functor,))
        elif t[0] == "at":
            _expect(len(t) == 4 and t[2] == "=", "at a = m", ln)
            components[t[1]] = t[3]
        else:
            raise FixtureError("unknown nattrans line %s" % t[0], ln)
    _expect(len(ends) == 2, "nattrans needs source and target", head)
    a = NatTrans(name, ends["source"], ends["target"], components)
    return a, _inherited(env, named) or _own(validate_nat_trans(a))


def _parse_diagram(name, head, body, env):
    index = None
    orientation = "covariant"
    fibers, on1, on2 = {}, {}, {}
    generators, named = {}, []
    for ln, t in body:
        if t[0] == "index":
            index = _ref(env, t, ln, named, (TwoCat,))
        elif t[0] == "orientation":
            _expect(len(t) == 2 and t[1] in ("covariant", "op"),
                    "orientation covariant|op", ln)
            orientation = t[1]
        elif t[0] == "fiber":
            _expect(len(t) == 4 and t[2] == "=", "fiber A = C", ln)
            fibers[t[1]] = env.lookup(t[3], (CategoryBlock,), ln)
        elif t[0] == "transition":
            _expect(len(t) == 4 and t[2] == "=", "transition u = F", ln)
            on1[t[1]] = env.lookup(t[3], (Functor,), ln)
        elif t[0] == "cell":
            _expect(len(t) == 4 and t[2] == "=", "cell g = N", ln)
            on2[t[1]] = env.lookup(t[3], (NatTrans,), ln)
        elif t[0] == "generators":
            _expect(len(t) >= 4 and t[2] == ":", "generators A : a b", ln)
            generators[t[1]] = frozenset(t[3:])
        else:
            raise FixtureError("unknown diagram line %s" % t[0], ln)
    _expect(index is not None, "diagram needs an index", head)
    dia = TwoDiagram(name, index, {A: b.cat for A, b in fibers.items()},
                     {}, {})
    out = DiagramBlock(dia, generators, fibers)
    bad = _inherited(env, named + [("fiber %s (%s)" % (A, b.cat.name),
                                    b.cat.name)
                                   for A, b in sorted(fibers.items())])
    if bad:
        return out, bad
    if orientation == "op":
        dia.index = index = opposite_two_cat(index)
    for A in index.objects():
        if A not in fibers:
            raise FixtureError("diagram %s: no fiber for index object %s"
                               % (name, A))
    identity = once_per_object()  # one identity functor or cell per x
    for u in index.one_cells():
        a = index.cells1.mor_src[u]
        if u in on1:
            dia.on1[u] = on1[u]
        elif u == index.cells1.identities.get(a):
            dia.on1[u] = identity(identity_functor, fibers[a].cat)
        else:
            raise FixtureError("diagram %s: no transition for 1-cell %s"
                               % (name, u))
    # identity 2-cells are derived only from transitions that hold
    broken = ["functor at %s is invalid" % u for u in index.one_cells()
              if u in on1 and env.violations.get(on1[u].name)]
    broken += ["transformation at %s is invalid" % g
               for g in index.two_cells()
               if g in on2 and env.violations.get(on2[g].name)]
    if broken:
        return out, _own(broken[:1])
    for g in index.two_cells():
        if g in on2:
            dia.on2[g] = on2[g]
        elif g in index.two_id.values():
            dia.on2[g] = identity(identity_nat, dia.on1[index.two_src[g]])
        else:
            raise FixtureError("diagram %s: no transformation for 2-cell %s"
                               % (name, g))
    ok, why = check_two_functor(dia)
    return out, _own(_entry_violations(index, fibers, on1, on2, generators)
                     + ([] if ok else [why]))


def _strays(kind, entries, known, what):
    """A message for every `kind` entry of a block at a name not in
    `known`."""
    return ["%s %s: %s is not %s" % (kind, n, n, what)
            for n in sorted(entries) if n not in known]


def _entry_violations(index, fibers, on1, on2, generators):
    """A message for every fiber, transition, cell or generator set of a
    diagram block at something the index lacks, and for every generator
    its fiber lacks."""
    out = (_strays("fiber", fibers, index.objects(), "an index object")
           + _strays("transition", on1, index.one_cells(), "a 1-cell")
           + _strays("cell", on2, index.two_cells(), "a 2-cell")
           + _strays("generators", generators, index.objects(),
                     "an index object"))
    for A, names in sorted(generators.items()):
        if A in index.objects():
            cat = fibers[A].cat
            out += ["generators %s: %s is not an object of %s"
                    % (A, c, cat.name) for c in sorted(names)
                    if c not in cat.objects]
    return out


def _parse_cone(name, head, body, env):
    diagram = vertex = None
    legs, coherence, named = {}, {}, []
    for ln, t in body:
        if t[0] == "diagram":
            diagram = _ref(env, t, ln, named, (DiagramBlock,)).diagram
        elif t[0] == "vertex":
            vertex = _cat_of(_ref(env, t, ln, named), "vertex", ln)
        elif t[0] == "leg":
            _expect(len(t) == 4 and t[2] == "=", "leg A = F", ln)
            legs[t[1]] = env.lookup(t[3], (Functor,), ln)
            named.append(("leg %s (%s)" % (t[1], t[3]), t[3]))
        elif t[0] == "coh":
            _expect(len(t) == 4 and t[2] == "=", "coh u = N", ln)
            coherence[t[1]] = env.lookup(t[3], (NatTrans,), ln)
            named.append(("coh %s (%s)" % (t[1], t[3]), t[3]))
        else:
            raise FixtureError("unknown cone line %s" % t[0], ln)
    _expect(diagram is not None and vertex is not None,
            "cone needs diagram and vertex", head)
    h = Pseudocone(name, diagram, vertex, legs, coherence)
    bad = _inherited(env, named)
    if bad:
        return h, bad
    for u in diagram.index.one_cells():
        a = diagram.index.cells1.mor_src[u]
        if (u not in coherence and a in legs
                and u == diagram.index.cells1.identities.get(a)):
            coherence[u] = identity_nat(legs[a])
    ok, why = check_pseudocone(h)
    bad = (_strays("leg", legs, diagram.index.objects(), "an index object")
           + _strays("coh", coherence, diagram.index.one_cells(), "a 1-cell"))
    return h, _own(bad + ([] if ok else [why]))


def _parse_presheaf(name, head, body, env):
    cat = None
    sets, maps, named = {}, {}, []
    for ln, t in body:
        if t[0] == "category":
            block = _ref(env, t, ln, named)
            cat = _cat_of(block, "category", ln)
            env.presheaf_blocks[name] = block
        elif t[0] == "set":
            _expect(len(t) >= 3 and t[2] == ":", "set a : e1 ...", ln)
            sets[t[1]] = tuple(t[3:])
        elif t[0] == "map":
            _expect(len(t) == 5 and t[3] == "=", "map f e = e'", ln)
            maps.setdefault(t[1], {})[t[2]] = t[4]
        else:
            raise FixtureError("unknown presheaf line %s" % t[0], ln)
    _expect(cat is not None, "presheaf needs a category", head)
    P = Presheaf(name, cat, sets, maps)
    bad = _inherited(env, named)
    if bad:
        return P, bad
    for o in cat.objects:
        sets.setdefault(o, ())
    for m in cat.morphisms():
        maps.setdefault(m, {})
    return P, _own(validate_presheaf(P))


_BUILDERS = {
    "category": _parse_category,
    "twocat": _parse_twocat,
    "functor": _parse_functor,
    "nattrans": _parse_nattrans,
    "diagram": _parse_diagram,
    "cone": _parse_cone,
    "presheaf": _parse_presheaf,
}


# ---------------------------------------------------------------------------
# canonical printing


def _print_cat_core(out, C: FinCat):
    for o in C.objects:
        out.append("object %s" % o)
    for m in sorted(C.mor_src):
        out.append("mor %s : %s -> %s" % (m, C.mor_src[m], C.mor_tgt[m]))
    for o in C.objects:
        out.append("id %s = %s" % (o, C.identities[o]))
    for (g, f) in sorted(C.comp):
        out.append("comp %s . %s = %s" % (g, f, C.comp[(g, f)]))


def print_category(block: CategoryBlock) -> list[str]:
    out = ["[category %s]" % block.cat.name]
    _print_cat_core(out, block.cat)
    if block.limits is not None:
        A = block.limits
        if A.terminal is not None:
            out.append("terminal %s" % A.terminal)
        for o in sorted(A.tmap):
            out.append("tmap %s = %s" % (o, A.tmap[o]))
        for (a, b) in sorted(A.products):
            p, p1, p2 = A.products[(a, b)]
            out.append("product %s %s = %s %s %s" % (a, b, p, p1, p2))
        for (f, g) in sorted(A.equalizers):
            e, m = A.equalizers[(f, g)]
            out.append("equalizer %s %s = %s %s" % (f, g, e, m))
    for c in sorted(block.covers):
        for fam in block.covers[c]:
            out.append(" ".join(("cover", c, ":") + fam))
    for g in sorted(block.generators):
        out.append("generator %s" % g)
    return out


def print_twocat(A: TwoCat) -> list[str]:
    out = ["[twocat %s]" % A.name]
    _print_cat_core(out, A.cells1)
    for g in A.two_cells():
        out.append("twocell %s : %s => %s" % (g, A.two_src[g], A.two_tgt[g]))
    for u in sorted(A.two_id):
        out.append("twoid %s = %s" % (u, A.two_id[u]))
    for (h, g) in sorted(A.vcomp):
        out.append("vcomp %s . %s = %s" % (h, g, A.vcomp[(h, g)]))
    for (h, g) in sorted(A.hcomp):
        out.append("hcomp %s * %s = %s" % (h, g, A.hcomp[(h, g)]))
    return out


def print_functor(F: Functor) -> list[str]:
    out = ["[functor %s]" % F.name, "source %s" % F.source.name,
           "target %s" % F.target.name]
    for o in sorted(F.obj_map):
        out.append("obj %s -> %s" % (o, F.obj_map[o]))
    for m in sorted(F.mor_map):
        out.append("mor %s -> %s" % (m, F.mor_map[m]))
    return out


def print_presheaf(P: Presheaf, cat_name=None) -> list[str]:
    out = ["[presheaf %s]" % P.name, "category %s" % (cat_name or P.cat.name)]
    for o in sorted(P.sets):
        if P.sets[o]:
            out.append("set %s : %s" % (o, " ".join(P.sets[o])))
    for m in sorted(P.maps):
        for e in sorted(P.maps[m]):
            out.append("map %s %s = %s" % (m, e, P.maps[m][e]))
    return out


def render(blocks: list[list[str]]) -> str:
    lines = [HEADER]
    for b in blocks:
        lines.append("")
        lines.extend(b)
    return "\n".join(lines) + "\n"
