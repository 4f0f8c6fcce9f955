#include "xmlrpc/xml.h"

#include <cctype>

#include "common/strings.h"

namespace mrs {

const XmlElement* XmlElement::Child(std::string_view child_name) const {
  for (const XmlElement& c : children) {
    if (c.name == child_name) return &c;
  }
  return nullptr;
}

std::vector<const XmlElement*> XmlElement::Children(
    std::string_view child_name) const {
  std::vector<const XmlElement*> out;
  for (const XmlElement& c : children) {
    if (c.name == child_name) out.push_back(&c);
  }
  return out;
}

std::string XmlElement::TrimmedText() const {
  return std::string(Trim(text));
}

Result<std::string> XmlUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    char c = s[i];
    if (c != '&') {
      out += c;
      ++i;
      continue;
    }
    size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 12) {
      return ProtocolError("unterminated XML entity");
    }
    std::string_view ent = s.substr(i + 1, semi - i - 1);
    if (ent == "amp") {
      out += '&';
    } else if (ent == "lt") {
      out += '<';
    } else if (ent == "gt") {
      out += '>';
    } else if (ent == "quot") {
      out += '"';
    } else if (ent == "apos") {
      out += '\'';
    } else if (!ent.empty() && ent[0] == '#') {
      uint64_t code = 0;
      bool ok = false;
      if (ent.size() > 2 && (ent[1] == 'x' || ent[1] == 'X')) {
        code = 0;
        ok = true;
        for (char h : ent.substr(2)) {
          int d;
          if (h >= '0' && h <= '9') d = h - '0';
          else if (h >= 'a' && h <= 'f') d = h - 'a' + 10;
          else if (h >= 'A' && h <= 'F') d = h - 'A' + 10;
          else { ok = false; break; }
          code = code * 16 + static_cast<uint64_t>(d);
        }
      } else {
        auto n = ParseUint64(ent.substr(1));
        if (n.has_value()) {
          code = *n;
          ok = true;
        }
      }
      if (!ok || code > 0x10FFFF) {
        return ProtocolError("bad numeric character reference: &" +
                             std::string(ent) + ";");
      }
      // UTF-8 encode.
      if (code < 0x80) {
        out += static_cast<char>(code);
      } else if (code < 0x800) {
        out += static_cast<char>(0xC0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else if (code < 0x10000) {
        out += static_cast<char>(0xE0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        out += static_cast<char>(0xF0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (code & 0x3F));
      }
    } else {
      return ProtocolError("unknown XML entity: &" + std::string(ent) + ";");
    }
    i = semi + 1;
  }
  return out;
}

namespace {

/// Recursive-descent XML parser over a string_view cursor.
class XmlParser {
 public:
  explicit XmlParser(std::string_view input) : in_(input) {}

  Result<XmlElement> ParseDocument() {
    MRS_RETURN_IF_ERROR(SkipMisc());
    MRS_ASSIGN_OR_RETURN(XmlElement root, ParseElement(1));
    MRS_RETURN_IF_ERROR(SkipMisc());
    if (pos_ != in_.size()) {
      return ProtocolError("trailing content after XML root element");
    }
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  bool Match(std::string_view s) {
    if (in_.substr(pos_, s.size()) == s) {
      pos_ += s.size();
      return true;
    }
    return false;
  }
  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) ++pos_;
  }

  /// Skip whitespace, comments, PIs, and the XML declaration.
  Status SkipMisc() {
    while (true) {
      SkipWhitespace();
      if (Match("<!--")) {
        size_t end = in_.find("-->", pos_);
        if (end == std::string_view::npos) {
          return ProtocolError("unterminated XML comment");
        }
        pos_ = end + 3;
      } else if (in_.substr(pos_, 2) == "<?") {
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) {
          return ProtocolError("unterminated processing instruction");
        }
        pos_ = end + 2;
      } else if (in_.substr(pos_, 2) == "<!") {
        return ProtocolError("DTD declarations are not supported");
      } else {
        return Status::Ok();
      }
    }
  }

  Result<std::string> ParseName() {
    size_t start = pos_;
    while (!AtEnd()) {
      char c = Peek();
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-' ||
          c == '.' || c == ':') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return ProtocolError("expected XML name");
    return std::string(in_.substr(start, pos_ - start));
  }

  /// Parse one element at nesting `depth` (the root is 1).  Recursion is
  /// per child, so the kMaxXmlDepth cap bounds the stack a peer's
  /// document can use.
  Result<XmlElement> ParseElement(int depth) {
    if (depth > kMaxXmlDepth) {
      return ProtocolError("XML nesting deeper than " +
                           std::to_string(kMaxXmlDepth) + " elements");
    }
    if (AtEnd() || Peek() != '<') return ProtocolError("expected '<'");
    ++pos_;
    XmlElement elem;
    MRS_ASSIGN_OR_RETURN(elem.name, ParseName());

    // Attributes.
    while (true) {
      SkipWhitespace();
      if (AtEnd()) return ProtocolError("unterminated start tag");
      if (Match("/>")) return elem;
      if (Match(">")) break;
      MRS_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWhitespace();
      if (!Match("=")) return ProtocolError("expected '=' in attribute");
      SkipWhitespace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return ProtocolError("expected quoted attribute value");
      }
      char quote = Peek();
      ++pos_;
      size_t end = in_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return ProtocolError("unterminated attribute value");
      }
      MRS_ASSIGN_OR_RETURN(std::string value,
                           XmlUnescape(in_.substr(pos_, end - pos_)));
      pos_ = end + 1;
      elem.attributes.emplace_back(std::move(attr_name), std::move(value));
    }

    // Content.
    std::string raw_text;
    while (true) {
      if (AtEnd()) return ProtocolError("unterminated element <" + elem.name + ">");
      if (Match("<![CDATA[")) {
        size_t end = in_.find("]]>", pos_);
        if (end == std::string_view::npos) {
          return ProtocolError("unterminated CDATA section");
        }
        elem.text.append(in_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      if (Match("<!--")) {
        size_t end = in_.find("-->", pos_);
        if (end == std::string_view::npos) {
          return ProtocolError("unterminated XML comment");
        }
        pos_ = end + 3;
        continue;
      }
      if (in_.substr(pos_, 2) == "</") {
        pos_ += 2;
        MRS_ASSIGN_OR_RETURN(std::string closing, ParseName());
        if (closing != elem.name) {
          return ProtocolError("mismatched tags: <" + elem.name + "> vs </" +
                               closing + ">");
        }
        SkipWhitespace();
        if (!Match(">")) return ProtocolError("expected '>' in end tag");
        // Flush accumulated raw character data.
        MRS_ASSIGN_OR_RETURN(std::string decoded, XmlUnescape(raw_text));
        elem.text.append(decoded);
        return elem;
      }
      if (Peek() == '<') {
        MRS_ASSIGN_OR_RETURN(std::string decoded, XmlUnescape(raw_text));
        elem.text.append(decoded);
        raw_text.clear();
        MRS_ASSIGN_OR_RETURN(XmlElement child, ParseElement(depth + 1));
        elem.children.push_back(std::move(child));
        continue;
      }
      raw_text += Peek();
      ++pos_;
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
};

void WriteXmlTo(const XmlElement& e, std::string* out) {
  *out += '<';
  *out += e.name;
  for (const auto& [name, value] : e.attributes) {
    *out += ' ';
    *out += name;
    *out += "=\"";
    *out += XmlEscape(value);
    *out += '"';
  }
  if (e.text.empty() && e.children.empty()) {
    *out += "/>";
    return;
  }
  *out += '>';
  *out += XmlEscape(e.text);
  for (const XmlElement& child : e.children) WriteXmlTo(child, out);
  *out += "</";
  *out += e.name;
  *out += '>';
}

}  // namespace

Result<XmlElement> ParseXml(std::string_view input) {
  return XmlParser(input).ParseDocument();
}

std::string WriteXml(const XmlElement& element) {
  std::string out;
  WriteXmlTo(element, &out);
  return out;
}

}  // namespace mrs
