// Tests for the XML parser, XML-RPC value model, protocol framing, and an
// end-to-end dispatcher over a real HTTP server.
#include <gtest/gtest.h>

#include "http/client.h"
#include "http/message.h"
#include "http/server.h"
#include "rt/master.h"
#include "xmlrpc/client.h"
#include "xmlrpc/protocol.h"
#include "xmlrpc/server.h"
#include "xmlrpc/value.h"
#include "xmlrpc/xml.h"

namespace mrs {
namespace {

// ---- XML --------------------------------------------------------------------

TEST(Xml, ParsesNestedElements) {
  auto root = ParseXml("<a><b>text</b><b/><c x=\"1\">t2</c></a>");
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->children.size(), 3u);
  EXPECT_EQ(root->Children("b").size(), 2u);
  EXPECT_EQ(root->Child("c")->attributes[0].second, "1");
  EXPECT_EQ(root->Child("b")->text, "text");
}

TEST(Xml, SkipsDeclarationCommentsAndPis) {
  auto root = ParseXml(
      "<?xml version=\"1.0\"?><!-- hi --><root><!-- in -->x</root>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->TrimmedText(), "x");
}

TEST(Xml, DecodesEntities) {
  auto root = ParseXml("<r>&lt;a&gt; &amp; &quot;b&quot; &#65;&#x42;</r>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text, "<a> & \"b\" AB");
}

TEST(Xml, CdataPassedThrough) {
  auto root = ParseXml("<r><![CDATA[<raw>&amp;]]></r>");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->text, "<raw>&amp;");
}

TEST(Xml, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());   // mismatched tags
  EXPECT_FALSE(ParseXml("<a>").ok());              // unterminated
  EXPECT_FALSE(ParseXml("<a/><b/>").ok());         // two roots
  EXPECT_FALSE(ParseXml("plain text").ok());       // no element
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>").ok());   // unknown entity
  EXPECT_FALSE(ParseXml("<!DOCTYPE x><a/>").ok()); // DTD unsupported
}

// `depth` elements nested inside one another.
std::string NestedDocument(int depth) {
  std::string doc;
  for (int i = 0; i < depth; ++i) doc += "<a>";
  for (int i = 0; i < depth; ++i) doc += "</a>";
  return doc;
}

TEST(Xml, NestingIsCappedAtMaxDepth) {
  EXPECT_TRUE(ParseXml(NestedDocument(kMaxXmlDepth)).ok());
  EXPECT_EQ(ParseXml(NestedDocument(kMaxXmlDepth + 1)).status().code(),
            StatusCode::kProtocolError);
  // ~700 KB, deep enough to overflow the stack of a parser that recurses
  // without a cap.
  EXPECT_EQ(ParseXml(NestedDocument(100000)).status().code(),
            StatusCode::kProtocolError);
}

TEST(Xml, WriteParseRoundTrip) {
  XmlElement e;
  e.name = "value";
  e.text = "a<b>&\"c";
  XmlElement child;
  child.name = "i8";
  child.text = "42";
  e.children.push_back(child);
  // Serialized text escapes entities; reparse restores them.
  auto parsed = ParseXml(WriteXml(e));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->text, e.text);
  EXPECT_EQ(parsed->Child("i8")->text, "42");
}

// ---- Base64 ------------------------------------------------------------------

TEST(Base64, KnownVectors) {
  EXPECT_EQ(Base64Encode(""), "");
  EXPECT_EQ(Base64Encode("f"), "Zg==");
  EXPECT_EQ(Base64Encode("fo"), "Zm8=");
  EXPECT_EQ(Base64Encode("foo"), "Zm9v");
  EXPECT_EQ(Base64Encode("foobar"), "Zm9vYmFy");
}

TEST(Base64, RoundTripBinary) {
  std::string data;
  for (int i = 0; i < 256; ++i) data += static_cast<char>(i);
  auto decoded = Base64Decode(Base64Encode(data));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, data);
}

TEST(Base64, DecodeIgnoresWhitespaceRejectsGarbage) {
  EXPECT_EQ(Base64Decode("Zm 9v\n").value(), "foo");
  EXPECT_FALSE(Base64Decode("Z!9v").ok());
  EXPECT_FALSE(Base64Decode("Zg==Zg").ok());  // data after padding
}

// ---- XmlRpcValue -----------------------------------------------------------

XmlRpcValue RoundTrip(const XmlRpcValue& v) {
  auto out = XmlRpcValue::FromXml(v.ToXml());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ValueOr(XmlRpcValue());
}

TEST(XmlRpcValue, ScalarRoundTrips) {
  EXPECT_EQ(RoundTrip(XmlRpcValue(int64_t{-42})), XmlRpcValue(int64_t{-42}));
  EXPECT_EQ(RoundTrip(XmlRpcValue(true)), XmlRpcValue(true));
  EXPECT_EQ(RoundTrip(XmlRpcValue(3.25)), XmlRpcValue(3.25));
  EXPECT_EQ(RoundTrip(XmlRpcValue("hi <&>")), XmlRpcValue("hi <&>"));
  EXPECT_EQ(RoundTrip(XmlRpcValue()), XmlRpcValue());
}

TEST(XmlRpcValue, BinaryRoundTripsThroughBase64) {
  std::string raw("\x00\x01\xfe\xff", 4);
  XmlRpcValue v = XmlRpcValue::Binary(raw);
  XmlRpcValue back = RoundTrip(v);
  EXPECT_EQ(back.AsString().value(), raw);
}

TEST(XmlRpcValue, NestedArrayAndStruct) {
  XmlRpcStruct inner;
  inner["k"] = XmlRpcValue("v");
  XmlRpcArray arr{XmlRpcValue(int64_t{1}), XmlRpcValue(std::move(inner))};
  XmlRpcValue v(std::move(arr));
  XmlRpcValue back = RoundTrip(v);
  auto a = back.AsArray();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ((*a)->size(), 2u);
  auto field = (**a)[1].Field("k");
  ASSERT_TRUE(field.ok());
  EXPECT_EQ((*field)->AsString().value(), "v");
}

TEST(XmlRpcValue, TypeMismatchIsProtocolError) {
  XmlRpcValue v(int64_t{1});
  EXPECT_FALSE(v.AsString().ok());
  EXPECT_FALSE(v.AsArray().ok());
  EXPECT_FALSE(v.Field("x").ok());
  // Int promotes to double, but not the reverse.
  EXPECT_TRUE(v.AsDouble().ok());
  EXPECT_FALSE(XmlRpcValue(1.5).AsInt().ok());
}

TEST(XmlRpcValue, ParsesI4AndIntAliases) {
  auto v1 = XmlRpcValue::FromXml(
      ParseXml("<value><i4>7</i4></value>").value());
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->AsInt().value(), 7);
  auto v2 = XmlRpcValue::FromXml(
      ParseXml("<value><int>-9</int></value>").value());
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->AsInt().value(), -9);
}

TEST(XmlRpcValue, BareTextIsString) {
  auto v = XmlRpcValue::FromXml(ParseXml("<value>plain</value>").value());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString().value(), "plain");
}

// ---- Protocol ------------------------------------------------------------------

TEST(XmlRpcProtocol, CallRoundTrip) {
  xmlrpc::MethodCall call;
  call.method = "get_task";
  call.params = {XmlRpcValue(int64_t{3}), XmlRpcValue("x")};
  auto parsed = xmlrpc::ParseCall(xmlrpc::BuildCall(call));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->method, "get_task");
  ASSERT_EQ(parsed->params.size(), 2u);
  EXPECT_EQ(parsed->params[0].AsInt().value(), 3);
}

TEST(XmlRpcProtocol, ResponseRoundTrip) {
  auto parsed =
      xmlrpc::ParseResponse(xmlrpc::BuildResponse(XmlRpcValue("done")));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString().value(), "done");
}

TEST(XmlRpcProtocol, FaultBecomesErrorStatus) {
  auto parsed = xmlrpc::ParseResponse(xmlrpc::BuildFault(404, "missing"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("404"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("missing"), std::string::npos);
}

TEST(XmlRpcProtocol, RejectsWrongDocumentKind) {
  EXPECT_FALSE(xmlrpc::ParseCall("<methodResponse/>").ok());
  EXPECT_FALSE(xmlrpc::ParseResponse("<methodCall/>").ok());
}

// ---- Binary responses (mrsx1) ----------------------------------------------

std::string BinaryPayload() {
  std::string raw;
  for (int i = 0; i < 256; ++i) raw += static_cast<char>(i);
  return raw;  // includes NULs and every byte value
}

TEST(XmlRpcBinary, HasBinaryFindsNestedBinaryValues) {
  EXPECT_FALSE(XmlRpcValue("text").HasBinary());
  EXPECT_TRUE(XmlRpcValue::Binary("x").HasBinary());
  XmlRpcStruct s;
  s["records"] = XmlRpcValue(XmlRpcArray{XmlRpcValue(int64_t{1}),
                                         XmlRpcValue::Binary("x")});
  EXPECT_TRUE(XmlRpcValue(std::move(s)).HasBinary());
  XmlRpcStruct plain;
  plain["k"] = XmlRpcValue(XmlRpcArray{XmlRpcValue("v")});
  EXPECT_FALSE(XmlRpcValue(std::move(plain)).HasBinary());
}

TEST(XmlRpcBinary, BinaryResponseRoundTripsWithoutBase64) {
  std::string raw = BinaryPayload();
  XmlRpcStruct s;
  s["data"] = XmlRpcValue::Binary(raw);
  s["n"] = XmlRpcValue(int64_t{256});
  std::string framed = xmlrpc::BuildBinaryResponse(XmlRpcValue(std::move(s)));
  // The payload travels as raw attachment bytes, not base64 text.
  EXPECT_EQ(framed.find(Base64Encode(raw)), std::string::npos);
  auto parsed = xmlrpc::ParseBinaryResponse(framed);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ((*parsed->Field("data"))->AsString().value(), raw);
  EXPECT_EQ((*parsed->Field("n"))->AsInt().value(), 256);
}

TEST(XmlRpcBinary, TamperedFramesAreDataLoss) {
  std::string framed =
      xmlrpc::BuildBinaryResponse(XmlRpcValue::Binary("payload"));
  EXPECT_EQ(xmlrpc::ParseBinaryResponse("nope" + framed).status().code(),
            StatusCode::kDataLoss);  // wrong magic
  EXPECT_EQ(xmlrpc::ParseBinaryResponse(framed.substr(0, framed.size() - 3))
                .status()
                .code(),
            StatusCode::kDataLoss);  // truncated
  EXPECT_EQ(xmlrpc::ParseBinaryResponse(framed + "junk").status().code(),
            StatusCode::kDataLoss);  // trailing bytes
}

TEST(XmlRpcBinary, AttachmentInPlainDocumentIsProtocolError) {
  // An <attachment> placeholder is only meaningful inside an mrsx1 frame
  // set; a plain XML document containing one must be rejected, not
  // silently decoded as an empty string.
  auto parsed = xmlrpc::ParseResponse(
      "<methodResponse><params><param><value><attachment>0</attachment>"
      "</value></param></params></methodResponse>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kProtocolError);
}

// ---- Dispatcher over a live server ------------------------------------------

TEST(XmlRpcIntegration, CallOverRealHttp) {
  XmlRpcDispatcher dispatcher;
  dispatcher.Register("add", [](const XmlRpcArray& params)
                                 -> Result<XmlRpcValue> {
    int64_t sum = 0;
    for (const XmlRpcValue& p : params) {
      MRS_ASSIGN_OR_RETURN(int64_t v, p.AsInt());
      sum += v;
    }
    return XmlRpcValue(sum);
  });
  dispatcher.Register("fail", [](const XmlRpcArray&) -> Result<XmlRpcValue> {
    return InternalError("deliberate");
  });

  auto server = HttpServer::Start("127.0.0.1", 0,
                                  dispatcher.MakeHttpHandler("/RPC2"), 2);
  ASSERT_TRUE(server.ok());
  XmlRpcClient client((*server)->addr());

  auto sum = client.Call("add", {XmlRpcValue(int64_t{20}),
                                 XmlRpcValue(int64_t{22})});
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->AsInt().value(), 42);

  auto fail = client.Call("fail", {});
  EXPECT_FALSE(fail.ok());
  EXPECT_NE(fail.status().message().find("deliberate"), std::string::npos);

  auto unknown = client.Call("nope", {});
  EXPECT_FALSE(unknown.ok());
}

TEST(XmlRpcIntegration, BinaryResponsesAreNegotiatedPerClient) {
  std::string raw = BinaryPayload();
  XmlRpcDispatcher dispatcher;
  dispatcher.Register("blob",
                      [&](const XmlRpcArray&) -> Result<XmlRpcValue> {
                        return XmlRpcValue::Binary(raw);
                      });
  dispatcher.Register("text", [](const XmlRpcArray&) -> Result<XmlRpcValue> {
    return XmlRpcValue("plain");
  });
  auto server = HttpServer::Start("127.0.0.1", 0,
                                  dispatcher.MakeHttpHandler("/RPC2"), 2);
  ASSERT_TRUE(server.ok());

  // A new-style client gets the binary value back byte-for-byte.
  XmlRpcClient client((*server)->addr());
  auto blob = client.Call("blob", {});
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_EQ(blob->AsString().value(), raw);

  // On the wire: a caller that advertises mrsx1 gets a framed response ...
  HttpClient http((*server)->addr());
  xmlrpc::MethodCall call;
  call.method = "blob";
  HttpRequest req;
  req.method = "POST";
  req.target = "/RPC2";
  req.headers.Set(std::string(kMrsFormatHeader),
                  std::string(xmlrpc::kRpcBinaryFormat));
  req.body = xmlrpc::BuildCall(call);
  auto negotiated = http.Do(std::move(req));
  ASSERT_TRUE(negotiated.ok());
  EXPECT_EQ(negotiated->headers.Get(kMrsFormatHeader).value_or(""),
            xmlrpc::kRpcBinaryFormat);

  // ... while an old-style caller (no X-Mrs-Format) still gets plain XML
  // with the payload base64-encoded, so old peers keep interoperating.
  auto legacy = http.Post("/RPC2", xmlrpc::BuildCall(call), "text/xml");
  ASSERT_TRUE(legacy.ok());
  EXPECT_FALSE(legacy->headers.Get(kMrsFormatHeader).has_value());
  auto parsed = xmlrpc::ParseResponse(legacy->body);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->AsString().value(), raw);

  // Responses with no binary content stay plain XML even when the caller
  // accepts mrsx1 (nothing to gain from framing them).
  call.method = "text";
  HttpRequest req2;
  req2.method = "POST";
  req2.target = "/RPC2";
  req2.headers.Set(std::string(kMrsFormatHeader),
                   std::string(xmlrpc::kRpcBinaryFormat));
  req2.body = xmlrpc::BuildCall(call);
  auto plain = http.Do(std::move(req2));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->headers.Get(kMrsFormatHeader).has_value());

  // Faults are always plain XML so every client can read the error.
  auto fault = client.Call("nope", {});
  EXPECT_FALSE(fault.ok());
}

TEST(XmlRpcIntegration, DeeplyNestedPostLeavesTheMasterServing) {
  auto master = Master::Start(Master::Config{});
  ASSERT_TRUE(master.ok()) << master.status().ToString();
  std::string status_before = (*master)->StatusJson();

  HttpClient client((*master)->addr());
  auto reply = client.Post("/RPC2", NestedDocument(100000));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  // Answered with a fault naming the cap, not a crash.
  auto parsed = xmlrpc::ParseResponse(reply->body);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("XML nesting deeper than"),
            std::string::npos)
      << parsed.status().ToString();

  HttpClient probe((*master)->addr());
  auto status = probe.Get("/status");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status->status_code, 200);
  EXPECT_EQ(status->body, status_before);
  (*master)->Shutdown();
}

TEST(XmlRpcIntegration, NonRpcPathUsesFallback) {
  XmlRpcDispatcher dispatcher;
  auto handler = dispatcher.MakeHttpHandler("/RPC2", [](const HttpRequest&) {
    return HttpResponse::Ok("fallback");
  });
  HttpRequest req;
  req.method = "GET";
  req.target = "/data/x";
  EXPECT_EQ(handler(req).body, "fallback");
}

}  // namespace
}  // namespace mrs
