"""Exception types shared across the package."""


class FreefactorError(Exception):
    """Base class for all library-specific errors."""


class UnknownLetter(FreefactorError):
    pass


class InvalidAlphabet(FreefactorError):
    """An alphabet is empty or repeats a letter name."""


class UnknownMode(FreefactorError):
    """An experiment mode that is not one of ``experiments.MODES``."""


class NegativeSamples(FreefactorError):
    """An experiment asks for fewer than zero samples."""


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
    """A defining graph repeats a vertex, has a loop, or an edge off its vertices."""


class NotSurjective(FreefactorError):
    """Folded image graph is not the full rose; by Hopficity, not an automorphism."""


class TrivialSubgroup(FreefactorError):
    pass


class InvalidMarking(FreefactorError):
    pass


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


class AmbientTooLarge(FreefactorError):
    """Whitehead search bound exceeded (ambient rank > 6)."""


class TooLong(FreefactorError):
    """Syllable length exceeds the desk-scale bound of ``raag.min_set``."""


class TooLarge(FreefactorError):
    """Graph exceeds the desk-scale vertex bound."""


class OrbitBudgetExceeded(FreefactorError):
    """``raag.min_set`` found more members of Min(g) than its explicit budget."""


class NonPrimitiveImage(FreefactorError):
    """Abelianized generator is not a primitive integer pair."""


class UndefinedProjection(FreefactorError):
    pass


class NotInOmega(FreefactorError):
    pass


class NotOverlapping(FreefactorError):
    pass


class ThresholdViolated(FreefactorError):
    pass


class PathTooShort(FreefactorError):
    """A tree path has fewer than two trees."""


class NotAdmissible(FreefactorError):
    def __init__(self, pair, detail=""):
        self.pair = pair
        super().__init__(f"pair {pair} is neither disjoint nor overlapping: {detail}")


class SupportViolation(FreefactorError):
    pass


class CommutationViolation(FreefactorError):
    pass


class NotHyperbolicSeed(FreefactorError):
    pass


class NoSuchSyllable(FreefactorError):
    """A syllable index lies outside the word."""


class SchemaError(FreefactorError):
    """Fixture/serialization schema violation; message names the offending path."""
