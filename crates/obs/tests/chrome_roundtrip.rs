//! The Chrome exporter and parser must be exact inverses on the event
//! stream: `parse(render(snap))` recovers every span, instant, epoch tag
//! and track byte-faithfully, so `render(parse(doc)) == doc` for any
//! exporter-produced document — including the derived flow events, which
//! the parser skips and the re-render re-derives deterministically.

mod common;

use common::arb_snapshot;
use pipedream_obs::{parse_chrome_trace, render_chrome_trace};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chrome_render_parse_is_byte_faithful(snap in arb_snapshot()) {
        let doc = render_chrome_trace(&snap);
        let back = parse_chrome_trace(&doc).expect("exporter output must parse");

        // Every track, span, instant and epoch survives exactly.
        prop_assert_eq!(back.tracks.len(), snap.tracks.len());
        for (b, s) in back.tracks.iter().zip(snap.tracks.iter()) {
            prop_assert_eq!(&b.name, &s.name);
            prop_assert_eq!(b.stage, s.stage);
            prop_assert_eq!(&b.events, &s.events);
        }

        // And the re-render — including re-derived flow events — is
        // byte-identical to the original document.
        let again = render_chrome_trace(&back);
        prop_assert_eq!(again, doc);
    }
}
