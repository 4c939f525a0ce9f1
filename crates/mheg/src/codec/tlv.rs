//! Binary tag-length-value serialization of the document tree — the
//! ASN.1/BER role of the interchange model. Varint lengths keep small
//! objects small; inline media rides raw (no transcoding).

use super::node::Node;
use super::{CodecError, MAX_DEPTH};
use bytes::Bytes;

const TAG_ELEM: u8 = 0x01;
const TAG_DATA: u8 = 0x03;
/// Stream magic: "MHG1".
const MAGIC: &[u8; 4] = b"MHG1";

/// Encode a tree to bytes.
pub fn encode(node: &Node) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);
    write_node(&mut out, node);
    out
}

/// Decode bytes to a tree, requiring full consumption.
pub fn decode(data: &[u8]) -> Result<Node, CodecError> {
    if data.len() < 4 || &data[..4] != MAGIC {
        return Err(CodecError::Malformed("missing MHG1 magic".into()));
    }
    let mut r = Reader {
        data: &data[4..],
        pos: 0,
    };
    let node = read_node(&mut r, 1)?;
    if r.pos != r.data.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing bytes",
            r.data.len() - r.pos
        )));
    }
    Ok(node)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn write_node(out: &mut Vec<u8>, node: &Node) {
    match node {
        Node::Elem {
            name,
            attrs,
            children,
        } => {
            out.push(TAG_ELEM);
            write_str(out, name);
            write_varint(out, attrs.len() as u64);
            for (k, v) in attrs {
                write_str(out, k);
                write_str(out, v);
            }
            write_varint(out, children.len() as u64);
            for c in children {
                write_node(out, c);
            }
        }
        Node::Data(b) => {
            out.push(TAG_DATA);
            write_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.data.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(CodecError::Malformed("varint overflow".into()));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(len).ok_or(CodecError::Truncated)?;
        if end > self.data.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let len = self.varint()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|e| CodecError::BadText(e.to_string()))
    }
}

/// Reads one node at nesting level `depth` (the root is level 1).
fn read_node(r: &mut Reader<'_>, depth: usize) -> Result<Node, CodecError> {
    match r.byte()? {
        TAG_ELEM => {
            if depth > MAX_DEPTH {
                return Err(CodecError::TooDeep);
            }
            let name = r.string()?;
            let nattrs = r.varint()? as usize;
            // Cap pre-allocation to a sane bound: a hostile length field
            // must not cause a huge allocation before we hit Truncated.
            let mut attrs = Vec::with_capacity(nattrs.min(64));
            for _ in 0..nattrs {
                let k = r.string()?;
                let v = r.string()?;
                attrs.push((k, v));
            }
            let nchildren = r.varint()? as usize;
            let mut children = Vec::with_capacity(nchildren.min(64));
            for _ in 0..nchildren {
                children.push(read_node(r, depth + 1)?);
            }
            Ok(Node::Elem {
                name,
                attrs,
                children,
            })
        }
        TAG_DATA => {
            let len = r.varint()? as usize;
            let raw = r.bytes(len)?;
            Ok(Node::Data(Bytes::copy_from_slice(raw)))
        }
        other => Err(CodecError::UnknownTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Node {
        Node::elem("mheg")
            .attr("class", "content")
            .attr("app", 7)
            .child(
                Node::elem("info")
                    .attr("name", "Paris.mpg")
                    .child(Node::elem("kw").attr("v", "paris")),
            )
            .child(Node::Data(Bytes::from(vec![0u8, 1, 2, 255])))
    }

    #[test]
    fn round_trip() {
        let n = sample();
        let wire = encode(&n);
        assert_eq!(decode(&wire).unwrap(), n);
    }

    #[test]
    fn magic_required() {
        let mut wire = encode(&sample());
        wire[0] = b'X';
        assert!(matches!(decode(&wire), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = encode(&sample());
        wire.push(0);
        assert!(matches!(decode(&wire), Err(CodecError::Malformed(_))));
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let wire = encode(&sample());
        for cut in 4..wire.len() {
            assert!(decode(&wire[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn varints_handle_large_values() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            out.clear();
            write_varint(&mut out, v);
            let mut r = Reader { data: &out, pos: 0 };
            assert_eq!(r.varint().unwrap(), v);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let wire = [b'M', b'H', b'G', b'1', 0x7E];
        assert_eq!(decode(&wire), Err(CodecError::UnknownTag(0x7E)));
    }

    /// `levels` elements, each the single child of the one before.
    fn nested(levels: usize) -> Vec<u8> {
        let mut wire = MAGIC.to_vec();
        for _ in 0..levels {
            wire.push(TAG_ELEM);
            write_str(&mut wire, "x");
            write_varint(&mut wire, 0);
            write_varint(&mut wire, 1);
        }
        wire
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let mut wire = nested(MAX_DEPTH - 1);
        wire.push(TAG_ELEM);
        write_str(&mut wire, "x");
        write_varint(&mut wire, 0);
        write_varint(&mut wire, 0);
        assert!(decode(&wire).is_ok(), "MAX_DEPTH levels decode");
        assert_eq!(decode(&nested(MAX_DEPTH + 1)), Err(CodecError::TooDeep));
        // Deep enough to overflow any thread stack if it recursed.
        assert_eq!(decode(&nested(200_000)), Err(CodecError::TooDeep));
    }

    #[test]
    fn hostile_length_fields_fail_cleanly() {
        // Element claiming 2^40 attributes: must hit Truncated, not OOM.
        let mut wire = MAGIC.to_vec();
        wire.push(TAG_ELEM);
        write_str(&mut wire, "x");
        write_varint(&mut wire, 1 << 40);
        assert!(decode(&wire).is_err());
    }
}
