//! Message envelopes and MPI matching rules.
//!
//! A receive selects messages by source and tag, each either exact or a
//! wildcard (`MPI_ANY_SOURCE` / `MPI_ANY_TAG`). Matching must respect MPI's
//! *non-overtaking* rule: between one (sender, receiver) pair, messages match
//! receives in the order the sends were posted: a search takes the first
//! match in post order ([`match_first`], which the baseline searches its
//! unexpected-message queue with; BCS-MPI's indexed matcher answers as
//! that linear search would).

/// Source selector of a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SrcSel {
    Any,
    Rank(usize),
}

impl SrcSel {
    #[inline]
    pub fn matches(self, src: usize) -> bool {
        match self {
            SrcSel::Any => true,
            SrcSel::Rank(r) => r == src,
        }
    }
}

/// Tag selector of a receive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TagSel {
    Any,
    Tag(i32),
}

impl TagSel {
    #[inline]
    pub fn matches(self, tag: i32) -> bool {
        match self {
            TagSel::Any => true,
            TagSel::Tag(t) => t == tag,
        }
    }
}

/// The envelope of a posted send, as seen by the matcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Envelope {
    pub src: usize,
    pub dst: usize,
    pub tag: i32,
    pub bytes: usize,
}

/// Completion record returned to the application (MPI_Status).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    pub source: usize,
    pub tag: i32,
    pub bytes: usize,
}

impl Status {
    pub fn of(env: &Envelope) -> Status {
        Status {
            source: env.src,
            tag: env.tag,
            bytes: env.bytes,
        }
    }
}

/// Find the first element of `list` (which must be ordered by post time)
/// matching `src`/`tag`, returning its index. Taking the *first* match is
/// what implements non-overtaking.
pub fn match_first<T>(
    list: &[T],
    env_of: impl Fn(&T) -> Envelope,
    src: SrcSel,
    tag: TagSel,
) -> Option<usize> {
    list.iter()
        .position(|t| {
            let e = env_of(t);
            src.matches(e.src) && tag.matches(e.tag)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, tag: i32) -> Envelope {
        Envelope {
            src,
            dst: 0,
            tag,
            bytes: 8,
        }
    }

    #[test]
    fn exact_match() {
        let list = vec![env(1, 10), env(2, 20), env(1, 20)];
        assert_eq!(
            match_first(&list, |e| *e, SrcSel::Rank(2), TagSel::Tag(20)),
            Some(1)
        );
        assert_eq!(
            match_first(&list, |e| *e, SrcSel::Rank(3), TagSel::Tag(20)),
            None
        );
    }

    #[test]
    fn wildcard_source_takes_earliest() {
        let list = vec![env(5, 7), env(1, 7)];
        assert_eq!(
            match_first(&list, |e| *e, SrcSel::Any, TagSel::Tag(7)),
            Some(0)
        );
    }

    #[test]
    fn wildcard_tag_respects_non_overtaking() {
        // Two messages from the same source: the first posted must match
        // first even if a later one has a "nicer" tag.
        let list = vec![env(4, 99), env(4, 1)];
        assert_eq!(
            match_first(&list, |e| *e, SrcSel::Rank(4), TagSel::Any),
            Some(0)
        );
    }

    #[test]
    fn full_wildcard() {
        let list = vec![env(9, 3)];
        assert_eq!(match_first(&list, |e| *e, SrcSel::Any, TagSel::Any), Some(0));
        let empty: Vec<Envelope> = vec![];
        assert_eq!(match_first(&empty, |e| *e, SrcSel::Any, TagSel::Any), None);
    }

    #[test]
    fn status_mirrors_envelope() {
        let e = Envelope {
            src: 3,
            dst: 4,
            tag: 17,
            bytes: 4096,
        };
        let s = Status::of(&e);
        assert_eq!((s.source, s.tag, s.bytes), (3, 17, 4096));
    }
}
