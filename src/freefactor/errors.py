"""Exception types shared across the package."""


class FreefactorError(Exception):
    """Base class for all library-specific errors."""


class UnknownLetter(FreefactorError):
    """A letter name, letter index or RAAG generator outside its alphabet or graph."""


class InvalidAlphabet(FreefactorError):
    """An alphabet is empty, repeats a letter name, or has a name that a word
    cannot spell: an empty one, or one holding whitespace or ``^``."""


class UnknownMode(FreefactorError):
    """An experiment mode that is not one of ``experiments.MODES``."""


class NotPositive(FreefactorError):
    """An experiment asks for fewer than one sample or for a push power below 1."""


class MalformedWord(FreefactorError):
    """A word token is not ``name`` or ``name^exp`` with an integer exponent,
    a word is not freely reduced, or a letter or syllable has no sign."""


class AlphabetMismatch(FreefactorError):
    """Words or subgroup graphs over different alphabets were combined."""


class ImageCountMismatch(FreefactorError):
    """A map lists a number of images other than its domain's rank."""


class MalformedVertex(FreefactorError):
    """A Farey vertex is not written ``p/q`` with integers p and q, or its
    first nonzero coordinate is negative."""


class NotUnimodular(FreefactorError):
    """A 2x2 integer matrix has determinant other than ±1."""


class InvalidGraph(FreefactorError):
    """A defining graph repeats a vertex, has a loop, or an edge off its
    vertices, or has a vertex name that a word cannot spell or that prints as
    the identity (``1``)."""


class NotSurjective(FreefactorError):
    """Folded image graph is not the full rose; by Hopficity, not an automorphism."""


class TrivialSubgroup(FreefactorError):
    """The trivial subgroup has no core, so it has no canonical key."""


class InvalidMarking(FreefactorError):
    """A marked graph is disconnected, has a vertex of valence < 2, or does not mark its group."""


class RankTooSmall(FreefactorError):
    """A factor's rank is below what the operation needs."""


class RankMismatch(FreefactorError):
    """A word or map is over an alphabet of another rank than the operation
    needs, or a factor has another rank."""


class LengthMismatch(FreefactorError):
    """Sequences that must match in length do not: a system's factors, seeds
    and complements, or a factor basis and its complement against the rank."""


class InvalidTransport(FreefactorError):
    """``transport`` needs a verified automorphism of the factor's ambient group."""


class TooLarge(FreefactorError):
    """A graph has more vertices than ``raag.clique_number`` takes, or a
    word has an exponent beyond ``words.MAX_EXPONENT``."""


class NonPrimitiveImage(FreefactorError):
    """Abelianized generator is not a primitive integer pair."""


class UndefinedProjection(FreefactorError):
    """A projection not onto a rank-2 free factor, or between factors that do not meet."""


class NotInOmega(FreefactorError):
    """Two marked graphs are less than K apart in one of the two factors."""


class NotOverlapping(FreefactorError):
    """Factors that must overlap do not meet."""


class ThresholdViolated(FreefactorError):
    """A path's endpoints are less than K apart in the factor, or its interval is degenerate."""


class PathTooShort(FreefactorError):
    """A tree path has fewer than two trees."""


class NotAdmissible(FreefactorError):
    def __init__(self, pair, detail=""):
        self.pair = pair
        super().__init__(f"pair {pair} is neither disjoint nor overlapping: {detail}")


class SupportViolation(FreefactorError):
    """A generator moves its own or a linked factor, or is not inner-trivial on a linked one."""


class CommutationViolation(FreefactorError):
    """The commutator of two linked generators is not inner."""


class NotHyperbolicSeed(FreefactorError):
    """A seed's abelianization on its factor is not hyperbolic: |trace| <= 2."""


class NoSuchSyllable(FreefactorError):
    """A syllable index lies outside the word."""


class SchemaError(FreefactorError):
    """Fixture/serialization schema violation; message names the offending path."""
