//! SGML-style textual serialization of the document tree.
//!
//! A deliberately small markup dialect: elements with double-quoted
//! attributes, nested children, and `<bin>…hex…</bin>` for binary data.
//! It is not a full SGML parser (no DTDs, no entities beyond the four
//! escapes) — the paper uses SGML purely as an interchange notation, and
//! this dialect preserves that role while remaining auditable by eye.

use super::node::{escape, from_hex, to_hex, unescape, Node};
use super::{CodecError, MAX_DEPTH};
use bytes::Bytes;

/// Render a tree as markup text.
pub fn encode(node: &Node) -> String {
    let mut out = String::with_capacity(256);
    write_node(&mut out, node);
    out
}

/// Parse markup text into a tree, requiring a single root element and
/// full consumption.
pub fn decode(text: &str) -> Result<Node, CodecError> {
    let mut p = Parser {
        text: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let node = p.parse_node(1)?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(CodecError::BadText(format!(
            "trailing content at byte {}",
            p.pos
        )));
    }
    Ok(node)
}

fn write_node(out: &mut String, node: &Node) {
    match node {
        Node::Elem {
            name,
            attrs,
            children,
        } => {
            out.push('<');
            out.push_str(name);
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                out.push_str(&escape(v));
                out.push('"');
            }
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for c in children {
                    write_node(out, c);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
        Node::Data(b) => {
            out.push_str("<bin>");
            out.push_str(&to_hex(b));
            out.push_str("</bin>");
        }
    }
}

struct Parser<'a> {
    text: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<u8, CodecError> {
        let b = self.peek().ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), CodecError> {
        let got = self.bump()?;
        if got != b {
            return Err(CodecError::BadText(format!(
                "expected {:?} at byte {}, got {:?}",
                b as char,
                self.pos - 1,
                got as char
            )));
        }
        Ok(())
    }

    fn ident(&mut self) -> Result<String, CodecError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'-' || c == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(CodecError::BadText(format!("empty name at byte {start}")));
        }
        Ok(std::str::from_utf8(&self.text[start..self.pos])
            .expect("idents are ASCII")
            .to_string())
    }

    fn quoted(&mut self) -> Result<String, CodecError> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'"' {
                let raw = std::str::from_utf8(&self.text[start..self.pos])
                    .map_err(|e| CodecError::BadText(e.to_string()))?;
                self.pos += 1;
                return unescape(raw).map_err(CodecError::BadText);
            }
            self.pos += 1;
        }
        Err(CodecError::Truncated)
    }

    /// Parses one node at nesting level `depth` (the root is level 1).
    fn parse_node(&mut self, depth: usize) -> Result<Node, CodecError> {
        if depth > MAX_DEPTH {
            return Err(CodecError::TooDeep);
        }
        self.expect(b'<')?;
        let name = self.ident()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek().ok_or(CodecError::Truncated)? {
                b'/' => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(Node::Elem {
                        name,
                        attrs,
                        children: Vec::new(),
                    });
                }
                b'>' => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    let k = self.ident()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let v = self.quoted()?;
                    attrs.push((k, v));
                }
            }
        }
        // bin elements carry hex text instead of children.
        if name == "bin" {
            let start = self.pos;
            while self.peek() != Some(b'<') {
                if self.peek().is_none() {
                    return Err(CodecError::Truncated);
                }
                self.pos += 1;
            }
            let hex = std::str::from_utf8(&self.text[start..self.pos])
                .map_err(|e| CodecError::BadText(e.to_string()))?;
            let data = from_hex(hex.trim()).map_err(CodecError::BadText)?;
            self.close_tag("bin")?;
            return Ok(Node::Data(Bytes::from(data)));
        }
        let mut children = Vec::new();
        loop {
            self.skip_ws();
            if self.text[self.pos..].starts_with(b"</") {
                self.close_tag(&name)?;
                return Ok(Node::Elem {
                    name,
                    attrs,
                    children,
                });
            }
            children.push(self.parse_node(depth + 1)?);
        }
    }

    fn close_tag(&mut self, name: &str) -> Result<(), CodecError> {
        self.expect(b'<')?;
        self.expect(b'/')?;
        let got = self.ident()?;
        if got != name {
            return Err(CodecError::BadText(format!(
                "mismatched close tag: <{name}> closed by </{got}>"
            )));
        }
        self.skip_ws();
        self.expect(b'>')
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Node {
        Node::elem("mheg")
            .attr("class", "content")
            .attr("name", "a<b>&\"c")
            .child(Node::elem("empty"))
            .child(Node::elem("info").attr("v", "x").child(Node::elem("kw")))
            .child(Node::Data(Bytes::from(vec![0u8, 0xFF, 0x42])))
    }

    #[test]
    fn round_trip() {
        let n = sample();
        let text = encode(&n);
        assert_eq!(decode(&text).unwrap(), n, "text was: {text}");
    }

    #[test]
    fn self_closing_and_nested_render() {
        let text = encode(&sample());
        assert!(text.contains("<empty/>"));
        assert!(text.contains("<bin>00ff42</bin>"));
        assert!(text.contains("name=\"a&lt;b&gt;&amp;&quot;c\""));
    }

    #[test]
    fn whitespace_tolerated() {
        let text = "<a x=\"1\">\n  <b/>\n  <c y=\"2\"/>\n</a>";
        let n = decode(text).unwrap();
        assert_eq!(n.name(), Some("a"));
        assert_eq!(n.kids().len(), 2);
    }

    #[test]
    fn mismatched_close_rejected() {
        assert!(decode("<a><b></a></a>").is_err());
        assert!(decode("<a></b>").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(decode("<a/>junk").is_err());
        assert!(decode("<a/><b/>").is_err(), "two roots");
    }

    #[test]
    fn truncated_rejected() {
        let text = encode(&sample());
        for cut in 1..text.len() {
            if text.is_char_boundary(cut) {
                assert!(decode(&text[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |levels: usize| "<a>".repeat(levels - 1) + "<a/>" + &"</a>".repeat(levels - 1);
        assert!(decode(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(decode(&nested(MAX_DEPTH + 1)), Err(CodecError::TooDeep));
        assert_eq!(decode(&"<a>".repeat(200_000)), Err(CodecError::TooDeep));
    }

    #[test]
    fn bad_hex_in_bin_rejected() {
        assert!(decode("<bin>xyz</bin>").is_err());
        assert!(decode("<bin>abc</bin>").is_err(), "odd length");
    }
}
