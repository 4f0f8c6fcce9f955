// Small XML document model and parser — just enough for XML-RPC.
//
// Mrs chose XML-RPC "because it is included in the Python standard library
// even though other protocols are more efficient" (paper §IV-B).  We keep
// that design decision: the master/slave control channel speaks real
// XML-RPC over HTTP, with the XML layer implemented here from scratch.
//
// Supported: elements, attributes, character data with the five predefined
// entities, numeric character references, comments, processing
// instructions, CDATA.  Not supported (rejected): DTDs, namespaces beyond
// verbatim names.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace mrs {

/// An XML element: name, attributes, text (concatenated character data
/// directly inside this element), and child elements in document order.
struct XmlElement {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::string text;
  std::vector<XmlElement> children;

  /// First child with the given name, or nullptr.
  const XmlElement* Child(std::string_view child_name) const;
  /// All children with the given name.
  std::vector<const XmlElement*> Children(std::string_view child_name) const;
  /// Text content with surrounding whitespace trimmed.
  std::string TrimmedText() const;
};

/// Deepest element nesting ParseXml accepts (the root is depth 1) — the
/// same bound as the record decoders' kMaxValueDepth.  The parser recurses
/// once per level, so the cap bounds the stack one hostile document can
/// use; every XML-RPC request and response stays far below it.
inline constexpr int kMaxXmlDepth = 256;

/// Parse a complete document; returns the root element.  Nesting past
/// kMaxXmlDepth is a ProtocolError.
Result<XmlElement> ParseXml(std::string_view input);

/// Serialize an element tree (no declaration, no pretty-printing).
std::string WriteXml(const XmlElement& element);

/// Decode the predefined entities and numeric references in character data.
Result<std::string> XmlUnescape(std::string_view s);

}  // namespace mrs
