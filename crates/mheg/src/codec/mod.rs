//! Interchange codecs — form (a) of the object life cycle.
//!
//! "In the MHEG object layer, objects are coded into ASN.1 or SGML at the
//! courseware author site and transmitted through the network" (§3.3,
//! Fig 2.9). We provide both faces over one document tree:
//!
//! * [`WireFormat::Tlv`] — a compact tag-length-value binary encoding
//!   playing the ASN.1/BER role (inline media bytes are carried raw);
//! * [`WireFormat::Sgml`] — a textual markup encoding (inline bytes are
//!   hex-encoded), human-readable and diffable.
//!
//! Both round-trip every object exactly (property-tested); the bench
//! `mheg_codec` compares their size and speed, reproducing the paper's
//! encode-at-author / decode-at-user interchange point.

mod node;
mod sgml;
mod tlv;
mod tree;

pub use node::Node;

use crate::object::MhegObject;
use bytes::Bytes;
use std::fmt;

/// Which interchange encoding to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// Binary tag-length-value (the ASN.1 role).
    Tlv,
    /// Textual markup (the SGML role).
    Sgml,
}

/// Errors from decoding an interchanged object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Byte stream ended unexpectedly or length field overran.
    Truncated,
    /// Structural problem; the message names the offending construct.
    Malformed(String),
    /// A numeric tag had no known meaning.
    UnknownTag(u8),
    /// Text was not valid UTF-8 / markup did not parse.
    BadText(String),
    /// Elements nested deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// Deepest element nesting either decoder accepts. Decoding recurses
/// once per level, so without a bound a hostile stream of nested
/// elements (4 bytes a level in TLV) exhausts the stack and aborts the
/// process. The deepest tree any object class encodes to is 5 levels (a
/// link's inline action entry), so the bound leaves wide headroom for
/// future classes while keeping a decode's stack use small.
pub const MAX_DEPTH: usize = 64;

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated interchange stream"),
            CodecError::Malformed(s) => write!(f, "malformed object: {s}"),
            CodecError::UnknownTag(t) => write!(f, "unknown tag {t}"),
            CodecError::BadText(s) => write!(f, "bad text: {s}"),
            CodecError::TooDeep => write!(f, "elements nested deeper than {MAX_DEPTH}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encode an object into its interchanged form (a).
pub fn encode_object(obj: &MhegObject, format: WireFormat) -> Bytes {
    let node = tree::object_to_node(obj);
    match format {
        WireFormat::Tlv => Bytes::from(tlv::encode(&node)),
        WireFormat::Sgml => Bytes::from(sgml::encode(&node).into_bytes()),
    }
}

/// Decode an interchanged form-(a) byte stream back into a form-(b)
/// object.
pub fn decode_object(data: &[u8], format: WireFormat) -> Result<MhegObject, CodecError> {
    let node = match format {
        WireFormat::Tlv => tlv::decode(data)?,
        WireFormat::Sgml => {
            let text = std::str::from_utf8(data).map_err(|e| CodecError::BadText(e.to_string()))?;
            sgml::decode(text)?
        }
    };
    tree::node_to_object(&node)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{ActionEntry, ElementaryAction, TargetRef, ValueAttribute};
    use crate::descriptor::ResourceNeed;
    use crate::ids::{MhegId, ObjectInfo};
    use crate::link::{Comparison, Condition, StatusKind};
    use crate::object::*;
    use crate::sync::{AtomicRelation, SyncMechanism, SyncSpec};
    use crate::value::GenericValue;
    use mits_media::{MediaFormat, MediaId, VideoDims};
    use mits_sim::SimDuration;

    fn sample_objects() -> Vec<MhegObject> {
        let id = |n| MhegId::new(7, n);
        let t = |n| TargetRef::Model(id(n));
        vec![
            // Content: referenced video, the paper's Paris.mpg example.
            MhegObject::new(
                id(1),
                ObjectInfo::named("Paris.mpg").with_keywords(["paris", "travel"]),
                ObjectBody::Content(ContentBody {
                    data: ContentData::Referenced(MediaId(42)),
                    format: MediaFormat::Mpeg,
                    original_size: VideoDims::new(64, 128),
                    original_duration: SimDuration::from_secs(6),
                    original_volume: 900,
                    original_position: (100, 200),
                }),
            ),
            // Content: inline text with markup-hostile characters.
            MhegObject::new(
                id(2),
                ObjectInfo::named("weird <text> & \"stuff\""),
                ObjectBody::Content(ContentBody {
                    data: ContentData::Inline(Bytes::from(vec![0, 1, 255, 60, 38, 34])),
                    format: MediaFormat::Ascii,
                    original_size: VideoDims::default(),
                    original_duration: SimDuration::ZERO,
                    original_volume: 1000,
                    original_position: (0, 0),
                }),
            ),
            // Generic value content.
            MhegObject::new(
                id(3),
                ObjectInfo::default(),
                ObjectBody::Content(ContentBody {
                    data: ContentData::Value(GenericValue::Str("a<b>&\"c".into())),
                    format: MediaFormat::Ascii,
                    original_size: VideoDims::default(),
                    original_duration: SimDuration::ZERO,
                    original_volume: 1000,
                    original_position: (-5, -9),
                }),
            ),
            // Multiplexed content with stream table.
            MhegObject::new(
                id(4),
                ObjectInfo::named("lecture-av"),
                ObjectBody::MultiplexedContent {
                    base: ContentBody::referenced(MediaId(9), MediaFormat::Mpeg),
                    streams: vec![
                        StreamDesc {
                            stream_id: 1,
                            format: MediaFormat::Mpeg,
                            enabled: true,
                        },
                        StreamDesc {
                            stream_id: 2,
                            format: MediaFormat::Wav,
                            enabled: false,
                        },
                    ],
                },
            ),
            // Composite with sync + on_start.
            MhegObject::new(
                id(5),
                ObjectInfo::named("scene1"),
                ObjectBody::Composite(CompositeBody {
                    components: vec![id(1), id(2)],
                    on_start: vec![ActionEntry::after(
                        t(1),
                        SimDuration::from_millis(250),
                        vec![
                            ElementaryAction::SetPosition { x: 10, y: 20 },
                            ElementaryAction::Run,
                        ],
                    )],
                    sync: vec![
                        SyncSpec::new(SyncMechanism::Atomic {
                            a: t(1),
                            b: t(2),
                            relation: AtomicRelation::Serial,
                        }),
                        SyncSpec::new(SyncMechanism::Elementary {
                            a: t(1),
                            t1: SimDuration::from_secs(1),
                            b: t(2),
                            t2: SimDuration::from_secs(3),
                        }),
                        SyncSpec::new(SyncMechanism::Cyclic {
                            target: t(1),
                            period: SimDuration::from_millis(500),
                            repetitions: Some(3),
                        }),
                        SyncSpec::new(SyncMechanism::Chained {
                            sequence: vec![t(1), t(2)],
                        }),
                    ],
                }),
            ),
            // Link with additional conditions + inline effect.
            MhegObject::new(
                id(6),
                ObjectInfo::named("stop-button-link"),
                ObjectBody::Link(LinkBody {
                    trigger: Condition::selected(t(2)),
                    additional: vec![Condition {
                        source: t(1),
                        status: StatusKind::RunState,
                        cmp: Comparison::Ne,
                        value: GenericValue::Str("stopped".into()),
                    }],
                    effect: LinkEffect::Inline(vec![ActionEntry::now(
                        t(1),
                        vec![
                            ElementaryAction::Stop,
                            ElementaryAction::SetVisibility(false),
                        ],
                    )]),
                }),
            ),
            // Link with action reference.
            MhegObject::new(
                id(7),
                ObjectInfo::default(),
                ObjectBody::Link(LinkBody {
                    trigger: Condition::completed(t(1)),
                    additional: vec![],
                    effect: LinkEffect::ActionRef(id(8)),
                }),
            ),
            // Action object exercising every elementary action.
            MhegObject::new(
                id(8),
                ObjectInfo::named("all-actions"),
                ObjectBody::Action(ActionBody {
                    entries: vec![ActionEntry::now(
                        t(1),
                        vec![
                            ElementaryAction::Prepare,
                            ElementaryAction::Destroy,
                            ElementaryAction::New,
                            ElementaryAction::DeleteRt,
                            ElementaryAction::Run,
                            ElementaryAction::Stop,
                            ElementaryAction::SetPosition { x: -1, y: 2 },
                            ElementaryAction::SetVisibility(true),
                            ElementaryAction::SetSize { w: 320, h: 240 },
                            ElementaryAction::SetSpeed(1500),
                            ElementaryAction::SetVolume(250),
                            ElementaryAction::Activate,
                            ElementaryAction::Deactivate,
                            ElementaryAction::SetInteraction(true),
                            ElementaryAction::SetData(GenericValue::Milli(-1250)),
                            ElementaryAction::GetValue(ValueAttribute::Position),
                            ElementaryAction::GetValue(ValueAttribute::State),
                        ],
                    )],
                }),
            ),
            // Script.
            MhegObject::new(
                id(9),
                ObjectInfo::named("quiz-score"),
                ObjectBody::Script(ScriptBody {
                    language: "mits-expr".into(),
                    source: "score > 60 && attempts < 3".into(),
                }),
            ),
            // Container.
            MhegObject::new(
                id(10),
                ObjectInfo::named("course-shipment"),
                ObjectBody::Container(ContainerBody {
                    objects: vec![id(1), id(4), id(5)],
                }),
            ),
            // Descriptor.
            MhegObject::new(
                id(11),
                ObjectInfo::named("needs"),
                ObjectBody::Descriptor(DescriptorBody {
                    describes: vec![id(1)],
                    needs: vec![
                        ResourceNeed::Decoder(MediaFormat::Mpeg),
                        ResourceNeed::Bandwidth(1_500_000),
                        ResourceNeed::Display(VideoDims::new(320, 240)),
                        ResourceNeed::AudioOutput,
                        ResourceNeed::CacheBytes(1 << 20),
                    ],
                    readme: "MPEG-1 course clip; needs ~1.5 Mb/s <sustained>".into(),
                }),
            ),
        ]
    }

    #[test]
    fn tlv_round_trips_every_class() {
        for obj in sample_objects() {
            let wire = encode_object(&obj, WireFormat::Tlv);
            let back = decode_object(&wire, WireFormat::Tlv)
                .unwrap_or_else(|e| panic!("decode {}: {e}", obj.id));
            assert_eq!(back, obj, "TLV round trip for {}", obj.id);
        }
    }

    #[test]
    fn sgml_round_trips_every_class() {
        for obj in sample_objects() {
            let wire = encode_object(&obj, WireFormat::Sgml);
            let back = decode_object(&wire, WireFormat::Sgml)
                .unwrap_or_else(|e| panic!("decode {}: {e}", obj.id));
            assert_eq!(back, obj, "SGML round trip for {}", obj.id);
        }
    }

    #[test]
    fn sgml_is_textual_tlv_is_smaller() {
        let obj = &sample_objects()[0];
        let sgml = encode_object(obj, WireFormat::Sgml);
        let tlv = encode_object(obj, WireFormat::Tlv);
        assert!(std::str::from_utf8(&sgml).is_ok(), "SGML is valid text");
        assert!(
            std::str::from_utf8(&sgml).unwrap().contains("mheg"),
            "markup names the root"
        );
        assert!(
            tlv.len() < sgml.len(),
            "binary beats text: {} vs {}",
            tlv.len(),
            sgml.len()
        );
    }

    #[test]
    fn hostile_nesting_is_an_error_not_an_abort() {
        // 200k elements, each the single child of the one before: 4 bytes
        // a level, 800 KB in all.
        let mut wire = b"MHG1".to_vec();
        for _ in 0..200_000 {
            wire.extend_from_slice(&[0x01, 1, b'x', 0, 1]);
        }
        assert_eq!(
            decode_object(&wire, WireFormat::Tlv),
            Err(CodecError::TooDeep)
        );
        let text = "<mheg>".repeat(200_000);
        assert_eq!(
            decode_object(text.as_bytes(), WireFormat::Sgml),
            Err(CodecError::TooDeep)
        );
    }

    #[test]
    fn every_sample_object_nests_well_inside_the_bound() {
        fn depth(n: &Node) -> usize {
            1 + n.kids().iter().map(depth).max().unwrap_or(0)
        }
        for obj in sample_objects() {
            let d = depth(&tree::object_to_node(&obj));
            assert!(d * 4 <= MAX_DEPTH, "{}: depth {d}", obj.id);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_object(b"not an object", WireFormat::Tlv).is_err());
        assert!(decode_object(b"<wrong/>", WireFormat::Sgml).is_err());
        assert!(decode_object(b"", WireFormat::Tlv).is_err());
        assert!(decode_object(&[0xFF; 64], WireFormat::Tlv).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let obj = &sample_objects()[4];
        let wire = encode_object(obj, WireFormat::Tlv);
        for cut in [1, wire.len() / 2, wire.len() - 1] {
            assert!(
                decode_object(&wire[..cut], WireFormat::Tlv).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn cross_format_mismatch_fails() {
        let obj = &sample_objects()[0];
        let tlv = encode_object(obj, WireFormat::Tlv);
        assert!(decode_object(&tlv, WireFormat::Sgml).is_err());
    }
}
