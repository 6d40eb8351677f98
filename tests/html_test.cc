// Unit tests for the HTML substrate: tokenizer, parser, DOM, serializer.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/html/dom.h"
#include "src/html/parser.h"
#include "src/html/serializer.h"
#include "src/html/tokenizer.h"
#include "src/sites/corpus.h"
#include "src/util/rand.h"

namespace rcb {
namespace {

// -------------------------------------------------------------- Tokenizer --

HtmlToken NextToken(HtmlTokenizer* tokenizer) {
  HtmlToken token;
  tokenizer->Next(&token);
  return token;
}

TEST(TokenizerTest, SimpleTags) {
  HtmlTokenizer tokenizer("<p>hi</p>");
  HtmlToken open = NextToken(&tokenizer);
  EXPECT_EQ(open.type, HtmlToken::Type::kStartTag);
  EXPECT_EQ(open.tag_name, "p");
  HtmlToken text = NextToken(&tokenizer);
  EXPECT_EQ(text.type, HtmlToken::Type::kText);
  EXPECT_EQ(text.data, "hi");
  HtmlToken close = NextToken(&tokenizer);
  EXPECT_EQ(close.type, HtmlToken::Type::kEndTag);
  EXPECT_EQ(close.tag_name, "p");
  EXPECT_EQ(NextToken(&tokenizer).type, HtmlToken::Type::kEndOfFile);
}

TEST(TokenizerTest, AttributesQuotedAndUnquoted) {
  HtmlTokenizer tokenizer(
      "<img src=\"a.png\" alt='pic' width=10 ismap>");
  HtmlToken token = NextToken(&tokenizer);
  ASSERT_EQ(token.attributes().size(), 4u);
  EXPECT_EQ(token.attributes()[0], (std::pair<std::string, std::string>{"src", "a.png"}));
  EXPECT_EQ(token.attributes()[1], (std::pair<std::string, std::string>{"alt", "pic"}));
  EXPECT_EQ(token.attributes()[2], (std::pair<std::string, std::string>{"width", "10"}));
  EXPECT_EQ(token.attributes()[3], (std::pair<std::string, std::string>{"ismap", ""}));
}

TEST(TokenizerTest, TagNamesLowercased) {
  HtmlTokenizer tokenizer("<DIV CLASS=\"X\"></DIV>");
  HtmlToken token = NextToken(&tokenizer);
  EXPECT_EQ(token.tag_name, "div");
  EXPECT_EQ(token.attributes()[0].first, "class");
  EXPECT_EQ(token.attributes()[0].second, "X");  // value case preserved
}

TEST(TokenizerTest, SelfClosing) {
  HtmlTokenizer tokenizer("<br/>");
  HtmlToken token = NextToken(&tokenizer);
  EXPECT_TRUE(token.self_closing);
}

TEST(TokenizerTest, Comment) {
  HtmlTokenizer tokenizer("<!-- a < b -->x");
  HtmlToken comment = NextToken(&tokenizer);
  EXPECT_EQ(comment.type, HtmlToken::Type::kComment);
  EXPECT_EQ(comment.data, " a < b ");
  EXPECT_EQ(NextToken(&tokenizer).data, "x");
}

TEST(TokenizerTest, Doctype) {
  HtmlTokenizer tokenizer("<!DOCTYPE html><html></html>");
  HtmlToken doctype = NextToken(&tokenizer);
  EXPECT_EQ(doctype.type, HtmlToken::Type::kDoctype);
  EXPECT_EQ(doctype.data, "DOCTYPE html");
}

TEST(TokenizerTest, ScriptContentIsRawText) {
  HtmlTokenizer tokenizer("<script>if (a<b && c>d) {}</script>");
  EXPECT_EQ(NextToken(&tokenizer).type, HtmlToken::Type::kStartTag);
  HtmlToken content = NextToken(&tokenizer);
  EXPECT_EQ(content.type, HtmlToken::Type::kText);
  EXPECT_EQ(content.data, "if (a<b && c>d) {}");
  EXPECT_EQ(NextToken(&tokenizer).type, HtmlToken::Type::kEndTag);
}

TEST(TokenizerTest, RawTextCaseInsensitiveClose) {
  HtmlTokenizer tokenizer("<style>a{}</STYLE>");
  NextToken(&tokenizer);
  EXPECT_EQ(NextToken(&tokenizer).data, "a{}");
  EXPECT_EQ(NextToken(&tokenizer).type, HtmlToken::Type::kEndTag);
}

TEST(TokenizerTest, EntitiesDecodedInText) {
  HtmlTokenizer tokenizer("<p>a &amp; b &lt;c&gt;</p>");
  NextToken(&tokenizer);
  EXPECT_EQ(NextToken(&tokenizer).data, "a & b <c>");
}

TEST(TokenizerTest, StrayLessThanIsText) {
  HtmlTokenizer tokenizer("a < b");
  HtmlToken token = NextToken(&tokenizer);
  EXPECT_EQ(token.type, HtmlToken::Type::kText);
  EXPECT_EQ(token.data, "a < b");
}

TEST(TokenizerTest, UnterminatedTagAtEof) {
  HtmlTokenizer tokenizer("<div class=\"x");
  HtmlToken token = NextToken(&tokenizer);
  EXPECT_EQ(token.type, HtmlToken::Type::kStartTag);
  EXPECT_EQ(NextToken(&tokenizer).type, HtmlToken::Type::kEndOfFile);
}

TEST(TokenizerTest, ReusedTokenCarriesOnlyTheCurrentToken) {
  HtmlTokenizer tokenizer("<a href=\"x\" id=\"y\" class=\"z\">t<B ID=\"w\"/>");
  HtmlToken token;
  tokenizer.Next(&token);
  ASSERT_EQ(token.attributes().size(), 3u);
  tokenizer.Next(&token);
  EXPECT_EQ(token.type, HtmlToken::Type::kText);
  EXPECT_EQ(token.data, "t");
  EXPECT_TRUE(token.tag_name.empty());
  EXPECT_TRUE(token.attributes().empty());
  tokenizer.Next(&token);
  EXPECT_EQ(token.type, HtmlToken::Type::kStartTag);
  EXPECT_EQ(token.tag_name, "b");
  EXPECT_TRUE(token.self_closing);
  ASSERT_EQ(token.attributes().size(), 1u);
  EXPECT_EQ(token.attributes()[0],
            (std::pair<std::string, std::string>{"id", "w"}));
  EXPECT_TRUE(token.data.empty());
  tokenizer.Next(&token);
  EXPECT_EQ(token.type, HtmlToken::Type::kEndOfFile);
  EXPECT_FALSE(token.self_closing);
}

// ------------------------------------------------------------------- DOM --

TEST(DomTest, AppendRemoveChildren) {
  auto parent = MakeElement("div");
  Node* a = parent->AppendChild(MakeElement("a"));
  Node* b = parent->AppendChild(MakeElement("b"));
  EXPECT_EQ(parent->child_count(), 2u);
  EXPECT_EQ(a->parent(), parent.get());
  auto removed = parent->RemoveChild(a);
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_EQ(parent->child_count(), 1u);
  EXPECT_EQ(parent->first_child(), b);
}

TEST(DomTest, InsertBefore) {
  auto parent = MakeElement("div");
  Node* b = parent->AppendChild(MakeElement("b"));
  parent->InsertBefore(MakeElement("a"), b);
  EXPECT_EQ(parent->child_at(0)->AsElement()->tag_name(), "a");
  EXPECT_EQ(parent->child_at(1)->AsElement()->tag_name(), "b");
  // nullptr reference appends.
  parent->InsertBefore(MakeElement("c"), nullptr);
  EXPECT_EQ(parent->child_at(2)->AsElement()->tag_name(), "c");
}

TEST(DomTest, AttributesOrderedAndCaseInsensitive) {
  Element element("div");
  element.SetAttribute("B", "2");
  element.SetAttribute("a", "1");
  EXPECT_EQ(element.GetAttribute("b").value(), "2");
  EXPECT_EQ(element.attributes()[0].first, "b");
  element.SetAttribute("b", "3");  // replace keeps position
  EXPECT_EQ(element.attributes()[0].second, "3");
  element.RemoveAttribute("B");
  EXPECT_FALSE(element.HasAttribute("b"));
  EXPECT_EQ(element.AttrOr("missing", "dflt"), "dflt");
}

TEST(DomTest, NamesAreStoredLowercase) {
  auto element = MakeElement("DIV");
  element->SetAttribute("onClick", "go()");
  EXPECT_EQ(element->tag_name(), "div");
  EXPECT_EQ(element->attributes()[0].first, "onclick");
  element->AssignAttributes(
      std::vector<std::pair<std::string, std::string>>{{"HREF", "/a"}});
  EXPECT_EQ(element->attributes()[0].first, "href");

  // Past the 15 bytes a std::string holds inline the name lives on the heap;
  // it is stored and copied the same way.
  auto custom = MakeElement("X-Custom-Element-Name");
  custom->SetAttribute("Data-Long-Attribute-Name", "v");
  EXPECT_EQ(custom->tag_name(), "x-custom-element-name");
  EXPECT_EQ(custom->attributes()[0].first, "data-long-attribute-name");

  for (const Element* source : {element.get(), custom.get()}) {
    std::unique_ptr<Node> clone = source->Clone();
    const Element* copy = clone->AsElement();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->tag_name(), source->tag_name());
    EXPECT_EQ(copy->attributes(), source->attributes());
    EXPECT_EQ(copy->OuterHtml(), source->OuterHtml());
  }
  // A clone owns its name: the source may go away first.
  std::unique_ptr<Node> orphan = custom->Clone();
  custom.reset();
  EXPECT_EQ(orphan->AsElement()->tag_name(), "x-custom-element-name");
}

TEST(DomTest, CloneIsDeepAndDetached) {
  auto tree = MakeElement("div");
  tree->SetAttribute("id", "root");
  Node* child = tree->AppendChild(MakeElement("span"));
  child->AppendChild(MakeText("hello"));
  auto clone = tree->Clone();
  Element* clone_element = clone->AsElement();
  EXPECT_EQ(clone_element->id(), "root");
  EXPECT_EQ(clone->child_count(), 1u);
  EXPECT_EQ(clone->TextContent(), "hello");
  EXPECT_EQ(clone->parent(), nullptr);
  // Mutating the clone leaves the original untouched.
  clone_element->SetAttribute("id", "changed");
  clone->RemoveAllChildren();
  EXPECT_EQ(tree->id(), "root");
  EXPECT_EQ(tree->child_count(), 1u);
}

TEST(DomTest, TextContentConcatenatesDescendants) {
  auto div = MakeElement("div");
  div->AppendChild(MakeText("a"));
  Node* span = div->AppendChild(MakeElement("span"));
  span->AppendChild(MakeText("b"));
  div->AppendChild(MakeText("c"));
  EXPECT_EQ(div->TextContent(), "abc");
}

TEST(DomTest, FindHelpers) {
  auto doc = ParseDocument(
      "<html><body><div id=\"x\"><p>1</p></div><p>2</p></body></html>");
  EXPECT_NE(doc->ById("x"), nullptr);
  EXPECT_EQ(doc->ById("nope"), nullptr);
  EXPECT_EQ(doc->FindAll("p").size(), 2u);
  EXPECT_EQ(doc->FindFirst("p")->TextContent(), "1");
}

TEST(DomTest, ForEachElementEarlyStop) {
  auto doc = ParseDocument("<html><body><a></a><b></b><c></c></body></html>");
  int visited = 0;
  doc->ForEachElement([&](Element* element) {
    ++visited;
    return element->tag_name() != "b";
  });
  // html, head, body, a, b -> stop.
  EXPECT_EQ(visited, 5);
}

TEST(DomTest, DetachFromParent) {
  auto parent = MakeElement("div");
  Node* child = parent->AppendChild(MakeElement("span"));
  auto owned = child->Detach();
  EXPECT_EQ(owned.get(), child);
  EXPECT_EQ(parent->child_count(), 0u);
  // Detaching an orphan is a no-op.
  EXPECT_EQ(owned->Detach(), nullptr);
}

// The participant's base-digest memo (src/delta/patch_applier.h) trusts an
// unchanged document_element()->rev(): every public mutator, applied deep in
// the tree, must give the root a rev it never had before.
TEST(DomTest, EveryMutatorRestampsTheDocumentElement) {
  std::unique_ptr<Document> document = ParseDocument(
      "<html><head></head><body><div id=\"d\"><p id=\"p\">text</p>"
      "<span id=\"s\"></span></div></body></html>");
  Element* div = document->ById("d");
  Element* p = document->ById("p");
  std::vector<uint64_t> seen{document->document_element()->rev()};
  auto expect_fresh_root_rev = [&](const char* mutator) {
    uint64_t rev = document->document_element()->rev();
    EXPECT_GT(rev, seen.back()) << mutator;
    seen.push_back(rev);
  };

  div->AppendChild(MakeElement("em"));
  expect_fresh_root_rev("AppendChild");
  div->InsertBefore(MakeText("lead"), div->first_child());
  expect_fresh_root_rev("InsertBefore");
  div->RemoveChild(div->first_child());
  expect_fresh_root_rev("RemoveChild");
  document->ById("s")->Detach();
  expect_fresh_root_rev("Detach");
  p->SetAttribute("class", "hot");
  expect_fresh_root_rev("SetAttribute");
  p->RemoveAttribute("class");
  expect_fresh_root_rev("RemoveAttribute");
  static_cast<Text*>(p->first_child())->set_data("edited");
  expect_fresh_root_rev("Text::set_data");
  p->SetInnerHtml("<b>inner</b>");
  expect_fresh_root_rev("SetInnerHtml");
  p->RemoveAllChildren();
  expect_fresh_root_rev("RemoveAllChildren");
}

// ---------------------------------------------------------------- Parser --

TEST(ParserTest, TenThousandTopLevelSiblingsKeepOrderAndParents) {
  std::string html;
  for (int i = 0; i < 10000; ++i) {
    html += "<i>" + std::to_string(i) + "</i>";
  }
  std::vector<std::unique_ptr<Node>> nodes = ParseFragment(html);
  ASSERT_EQ(nodes.size(), 10000u);
  size_t misplaced = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i]->parent() != nullptr ||
        nodes[i]->first_child()->parent() != nodes[i].get() ||
        nodes[i]->TextContent() != std::to_string(i)) {
      ++misplaced;
    }
  }
  EXPECT_EQ(misplaced, 0u);

  // The document scaffold hands the same siblings to <html>, then <body>.
  std::unique_ptr<Document> document = ParseDocument(html);
  Element* body = document->body();
  ASSERT_NE(body, nullptr);
  ASSERT_EQ(body->child_count(), 10000u);
  for (size_t i = 0; i < body->child_count(); ++i) {
    if (body->child_at(i)->parent() != body ||
        body->child_at(i)->TextContent() != std::to_string(i)) {
      ++misplaced;
    }
  }
  EXPECT_EQ(misplaced, 0u);
}

TEST(ParserTest, FullDocumentScaffold) {
  auto doc = ParseDocument(
      "<!DOCTYPE html><html><head><title>T</title></head>"
      "<body><p>x</p></body></html>");
  ASSERT_NE(doc->document_element(), nullptr);
  ASSERT_NE(doc->head(), nullptr);
  ASSERT_NE(doc->body(), nullptr);
  EXPECT_EQ(doc->Title(), "T");
}

TEST(ParserTest, MissingScaffoldCreated) {
  auto doc = ParseDocument("<p>bare content</p>");
  ASSERT_NE(doc->document_element(), nullptr);
  ASSERT_NE(doc->head(), nullptr);
  ASSERT_NE(doc->body(), nullptr);
  EXPECT_EQ(doc->body()->FindFirst("p")->TextContent(), "bare content");
}

TEST(ParserTest, HeadContentRelocated) {
  auto doc = ParseDocument("<html><title>T</title><p>b</p></html>");
  EXPECT_EQ(doc->Title(), "T");
  ASSERT_NE(doc->head(), nullptr);
  EXPECT_NE(doc->head()->FindFirst("title"), nullptr);
  EXPECT_NE(doc->body()->FindFirst("p"), nullptr);
}

TEST(ParserTest, FramesetDocument) {
  auto doc = ParseDocument(
      "<html><head><title>F</title></head>"
      "<frameset cols=\"50%,50%\"><frame src=\"a.html\">"
      "<frame src=\"b.html\"></frameset>"
      "<noframes><p>no frames</p></noframes></html>");
  EXPECT_NE(doc->frameset(), nullptr);
  EXPECT_EQ(doc->body(), nullptr);  // no body synthesized for frame pages
  EXPECT_NE(doc->noframes(), nullptr);
  EXPECT_EQ(doc->frameset()->FindAll("frame").size(), 2u);
}

TEST(ParserTest, VoidElementsDontNest) {
  auto doc = ParseDocument("<html><body><img src=\"a\"><p>after</p></body></html>");
  Element* img = doc->FindFirst("img");
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(img->child_count(), 0u);
  // <p> is a sibling of <img>, not its child.
  EXPECT_EQ(img->parent(), doc->body());
  EXPECT_EQ(doc->FindFirst("p")->parent(), doc->body());
}

TEST(ParserTest, MismatchedEndTagsRecovered) {
  auto doc = ParseDocument("<html><body><div><span>x</div></body></html>");
  // </div> closes both span and div (pop-to-match).
  Element* div = doc->FindFirst("div");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->TextContent(), "x");
}

TEST(ParserTest, StrayEndTagIgnored) {
  auto doc = ParseDocument("<html><body></table><p>ok</p></body></html>");
  EXPECT_EQ(doc->FindFirst("p")->TextContent(), "ok");
}

TEST(ParserTest, UnclosedListItemsBecomeSiblings) {
  auto doc = ParseDocument(
      "<html><body><ul><li>one<li>two<li>three</ul></body></html>");
  Element* ul = doc->FindFirst("ul");
  ASSERT_NE(ul, nullptr);
  auto items = ul->ChildElements();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0]->TextContent(), "one");
  EXPECT_EQ(items[2]->TextContent(), "three");
  // No nesting: each li has no li descendants.
  EXPECT_EQ(items[0]->FindAll("li").size(), 0u);
}

TEST(ParserTest, UnclosedParagraphs) {
  auto doc = ParseDocument("<html><body><p>a<p>b<div>c</div></body></html>");
  auto paragraphs = doc->FindAll("p");
  ASSERT_EQ(paragraphs.size(), 2u);
  EXPECT_EQ(paragraphs[0]->TextContent(), "a");
  EXPECT_EQ(paragraphs[1]->TextContent(), "b");
  // The div is a sibling, not a child of <p>b.
  EXPECT_EQ(doc->FindFirst("div")->parent(), doc->body());
}

TEST(ParserTest, UnclosedTableCells) {
  auto doc = ParseDocument(
      "<html><body><table><tr><td>a<td>b<tr><td>c</table></body></html>");
  auto rows = doc->FindAll("tr");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->FindAll("td").size(), 2u);
  EXPECT_EQ(rows[1]->FindAll("td").size(), 1u);
}

TEST(ParserTest, UnclosedOptionsAndDefinitions) {
  auto doc = ParseDocument(
      "<html><body><select><option>x<option>y</select>"
      "<dl><dt>term<dd>def<dt>term2</dl></body></html>");
  EXPECT_EQ(doc->FindFirst("select")->ChildElements().size(), 2u);
  Element* dl = doc->FindFirst("dl");
  ASSERT_NE(dl, nullptr);
  EXPECT_EQ(dl->ChildElements().size(), 3u);
}

TEST(ParserTest, NestedListsStillNest) {
  // An explicit nested list must not be flattened by the li rule: the inner
  // <ul> is INSIDE the first li, so the second li of the inner list closes
  // only the inner li.
  auto doc = ParseDocument(
      "<html><body><ul><li>outer<ul><li>inner1</li><li>inner2</li></ul></li>"
      "</ul></body></html>");
  Element* outer_ul = doc->FindFirst("ul");
  auto outer_items = outer_ul->ChildElements();
  ASSERT_EQ(outer_items.size(), 1u);
  EXPECT_EQ(outer_items[0]->FindAll("li").size(), 2u);
}

TEST(ParserTest, FragmentParsing) {
  auto nodes = ParseFragment("<b>bold</b> and <i>italic</i>");
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0]->AsElement()->tag_name(), "b");
  EXPECT_EQ(nodes[1]->TextContent(), " and ");
  EXPECT_EQ(nodes[2]->AsElement()->tag_name(), "i");
}

TEST(ParserTest, InnerHtmlRoundTrip) {
  auto div = MakeElement("div");
  div->SetInnerHtml("<p class=\"c\">one</p><p>two</p>");
  EXPECT_EQ(div->child_count(), 2u);
  EXPECT_EQ(div->InnerHtml(), "<p class=\"c\">one</p><p>two</p>");
}

TEST(ParserTest, SetInnerHtmlReplacesChildren) {
  auto div = MakeElement("div");
  div->SetInnerHtml("<a></a><b></b>");
  div->SetInnerHtml("<c></c>");
  EXPECT_EQ(div->child_count(), 1u);
  EXPECT_EQ(div->first_child()->AsElement()->tag_name(), "c");
}

TEST(ParserTest, EmptyDocument) {
  auto doc = ParseDocument("");
  ASSERT_NE(doc->document_element(), nullptr);
  EXPECT_NE(doc->head(), nullptr);
  EXPECT_NE(doc->body(), nullptr);
}

// -------------------------------------------------------------- Serializer --

TEST(SerializerTest, EscapesTextAndAttributes) {
  auto div = MakeElement("div");
  div->SetAttribute("title", "a\"b<c>");
  div->AppendChild(MakeText("x < y & z"));
  EXPECT_EQ(SerializeNode(*div),
            "<div title=\"a&quot;b&lt;c&gt;\">x &lt; y &amp; z</div>");
}

TEST(SerializerTest, ScriptContentNotEscaped) {
  auto doc = ParseDocument(
      "<html><head><script>var x = 1 < 2 && 3 > 2;</script></head></html>");
  Element* script = doc->FindFirst("script");
  ASSERT_NE(script, nullptr);
  std::string out = SerializeNode(*script);
  EXPECT_EQ(out, "<script>var x = 1 < 2 && 3 > 2;</script>");
}

TEST(SerializerTest, VoidElementsNoCloseTag) {
  auto doc = ParseDocument("<html><body><br><img src=\"x\"></body></html>");
  std::string out = SerializeNode(*doc->body());
  EXPECT_EQ(out, "<body><br><img src=\"x\"></body>");
}

TEST(SerializerTest, CommentsAndDoctypePreserved) {
  auto doc = ParseDocument("<!DOCTYPE html><!-- note --><html></html>");
  std::string out = SerializeNode(*doc);
  EXPECT_NE(out.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(out.find("<!-- note -->"), std::string::npos);
}

TEST(SerializerTest, ParseSerializeStable) {
  // Serializing a parsed document and reparsing yields the same serialization
  // (idempotent normalization) — the property RCB relies on for innerHTML
  // round trips.
  std::string html =
      "<!DOCTYPE html><html><head><title>T&amp;T</title>"
      "<style>.a{color:red}</style></head>"
      "<body class=\"main\"><div id=\"d\"><p>para 1</p>"
      "<img src=\"/i.png\" alt=\"x&lt;y\"><a href=\"/go?a=1&amp;b=2\">link</a>"
      "</div><script>if(a&&b){go();}</script></body></html>";
  auto doc1 = ParseDocument(html);
  std::string out1 = SerializeNode(*doc1);
  auto doc2 = ParseDocument(out1);
  std::string out2 = SerializeNode(*doc2);
  EXPECT_EQ(out1, out2);
}

TEST(SerializerTest, InnerHtmlOfRawTextElement) {
  auto doc = ParseDocument("<html><head><style>a>b{}</style></head></html>");
  Element* style = doc->FindFirst("style");
  EXPECT_EQ(style->InnerHtml(), "a>b{}");
}

// ------------------------------------------------------ In-place innerHTML --
//
// An innerHTML set reconciles against the live children: the result equals
// a fresh parse, and every node outside the region an edit touches keeps its
// address and rev. Driven over the 20 Table 1 pages with seeded edits.

using Path = std::vector<size_t>;

// Every node under `node` (not `node` itself), keyed by child-index path.
void CollectNodes(Node* node, Path* path, std::map<Path, Node*>* out) {
  for (size_t i = 0; i < node->child_count(); ++i) {
    path->push_back(i);
    (*out)[*path] = node->child_at(i);
    CollectNodes(node->child_at(i), path, out);
    path->pop_back();
  }
}

std::map<Path, Node*> NodesByPath(Node* root) {
  std::map<Path, Node*> out;
  Path path;
  CollectNodes(root, &path, &out);
  return out;
}

bool IsPrefix(const Path& prefix, const Path& path) {
  return prefix.size() <= path.size() &&
         std::equal(prefix.begin(), prefix.end(), path.begin());
}

// The nodes one edit may replace or restamp.
struct EditRegion {
  enum class Kind {
    kNothing,        // the markup is unchanged
    kPathTo,         // the edited node and its ancestors
    kChildrenFrom,   // ancestors of `path`, and its children from `index` on
    kEverything,     // the whole body was rewritten
  };
  Kind kind = Kind::kNothing;
  Path path;
  size_t index = 0;

  bool Covers(const Path& node) const {
    switch (kind) {
      case Kind::kNothing:
        return false;
      case Kind::kPathTo:
        return IsPrefix(node, path);
      case Kind::kChildrenFrom:
        return IsPrefix(node, path) ||
               (node.size() > path.size() && IsPrefix(path, node) &&
                node[path.size()] >= index);
      case Kind::kEverything:
        return true;
    }
    return true;
  }
};

enum class EditKind {
  kText, kCoFillValue, kAttribute, kInsertSibling, kRemoveSibling,
  kRewriteBody, kNone,
};
constexpr EditKind kEditKinds[] = {
    EditKind::kText,          EditKind::kCoFillValue,   EditKind::kAttribute,
    EditKind::kInsertSibling, EditKind::kRemoveSibling, EditKind::kRewriteBody,
    EditKind::kNone};

bool TakesChildren(const Element& element) {
  return !IsVoidElement(element.tag_name()) &&
         !HtmlTokenizer::IsRawTextElement(element.tag_name());
}

// Makes one seeded edit of `kind` to `model` (a fresh parse of the current
// body markup) and returns the new body markup; `region` says what it
// touched. Falls back to no edit when the page has no candidate node.
std::string EditBody(EditKind kind, Rng* rng, Element* model,
                     const std::string& current, const std::string& other_body,
                     EditRegion* region) {
  *region = EditRegion{};
  std::map<Path, Node*> nodes = NodesByPath(model);
  std::vector<std::pair<Path, Node*>> candidates;
  auto pick = [&]() -> std::pair<Path, Node*> {
    return candidates[rng->NextBelow(candidates.size())];
  };
  switch (kind) {
    case EditKind::kText:
      for (const auto& [path, node] : nodes) {
        if (node->type() == NodeType::kText) {
          candidates.emplace_back(path, node);
        }
      }
      if (candidates.empty()) {
        return current;
      } else {
        auto [path, node] = pick();
        auto* text = static_cast<Text*>(node);
        text->set_data(text->data() + " " + rng->NextToken(6));
        *region = {EditRegion::Kind::kPathTo, path, 0};
      }
      break;
    case EditKind::kCoFillValue:
    case EditKind::kAttribute:
      for (const auto& [path, node] : nodes) {
        Element* element = node->AsElement();
        if (element != nullptr &&
            (kind == EditKind::kAttribute || element->tag_name() == "input")) {
          candidates.emplace_back(path, node);
        }
      }
      if (candidates.empty()) {
        return current;
      } else {
        auto [path, node] = pick();
        Element* element = node->AsElement();
        std::string name = "value";
        if (kind == EditKind::kAttribute) {
          name = element->attributes().empty()
                     ? "data-edit"
                     : element->attributes()[rng->NextBelow(
                                                 element->attributes().size())]
                           .first;
        }
        element->SetAttribute(name, "v-" + rng->NextToken(8));
        *region = {EditRegion::Kind::kPathTo, path, 0};
      }
      break;
    case EditKind::kInsertSibling: {
      candidates.emplace_back(Path{}, model);
      for (const auto& [path, node] : nodes) {
        if (node->AsElement() != nullptr && TakesChildren(*node->AsElement())) {
          candidates.emplace_back(path, node);
        }
      }
      auto [path, parent] = pick();
      size_t index = rng->NextBelow(parent->child_count() + 1);
      auto span = MakeElement("span");
      span->SetAttribute("class", "inserted");
      span->AppendChild(MakeText(rng->NextToken(5)));
      parent->InsertBefore(std::move(span), index < parent->child_count()
                                                ? parent->child_at(index)
                                                : nullptr);
      *region = {EditRegion::Kind::kChildrenFrom, path, index};
      break;
    }
    case EditKind::kRemoveSibling:
      // An element whose neighbours are not both text: removing it must not
      // merge two text nodes, which would change a node before it.
      for (const auto& [path, node] : nodes) {
        Node* parent = node->parent();
        size_t index = path.back();
        auto is_text = [&](size_t i) {
          return i < parent->child_count() &&
                 parent->child_at(i)->type() == NodeType::kText;
        };
        if (node->AsElement() != nullptr &&
            !(index > 0 && is_text(index - 1) && is_text(index + 1))) {
          candidates.emplace_back(path, node);
        }
      }
      if (candidates.empty()) {
        return current;
      } else {
        auto [path, node] = pick();
        node->Detach();
        *region = {EditRegion::Kind::kChildrenFrom,
                   Path(path.begin(), path.end() - 1), path.back()};
      }
      break;
    case EditKind::kRewriteBody:
      *region = {EditRegion::Kind::kEverything, {}, 0};
      return other_body;
    case EditKind::kNone:
      return current;
  }
  return model->InnerHtml();
}

// BuildTree's span records: one per element, pre-order, content offsets
// from after the start tag to the token that closed it, descendant counts,
// and leaves for void, self-closing and raw-text elements.
TEST(ParserTest, BuildTreeRecordsElementSpans) {
  const std::string html =
      "<div><p>ab</p><br><script>x<y</script></div><p>c<p>d";
  auto root = MakeElement("body");
  std::vector<ElementSpan> spans;
  ASSERT_TRUE(BuildTree(html, root.get(), &spans));
  auto content = [&](const ElementSpan& span) {
    return html.substr(span.begin, span.end - span.begin);
  };
  ASSERT_EQ(spans.size(), 6u);  // div, p, br, script, p, p
  EXPECT_EQ(content(spans[0]), "<p>ab</p><br><script>x<y</script>");
  EXPECT_EQ(spans[0].descendants, 3u);
  EXPECT_EQ(content(spans[1]), "ab");
  EXPECT_FALSE(spans[1].leaf);
  EXPECT_TRUE(spans[2].leaf);  // br
  EXPECT_TRUE(spans[3].leaf);  // script
  EXPECT_EQ(content(spans[3]), "x<y");
  EXPECT_EQ(content(spans[4]), "c");  // ended by the next <p>
  EXPECT_EQ(content(spans[5]), "d");  // ended by the end of the markup
  EXPECT_EQ(spans[5].descendants, 0u);
}

// With `contained`, markup that would not close exactly where the root's
// content ends in a larger document is refused; markup that would is
// built as without it.
TEST(ParserTest, ContainedBuildRefusesWhatWouldCloseTheRoot) {
  const char* refused[] = {
      "a</p>b",           // an end tag for the root
      "a</div>",          // a stray end tag
      "a<div>b</div>",    // a start tag that implies the root <p>'s end
      "a<b>c",            // an element left open
      "a<!-- b",          // an unterminated comment
      "a<b title=\"c>",   // an unterminated tag
      "a<script>b",       // an unterminated raw-text run
      "a<!x",             // an unterminated bogus comment
  };
  for (const char* html : refused) {
    auto root = MakeElement("p");
    EXPECT_FALSE(BuildTree(html, root.get(), nullptr, /*contained=*/true))
        << html;
  }
  const char* accepted[] = {"", "a<b>c</b>d", "a<br>b", "a<script>x</script>",
                            "a<span><i>b</i></span><!-- c -->"};
  for (const char* html : accepted) {
    auto contained = MakeElement("p");
    EXPECT_TRUE(BuildTree(html, contained.get(), nullptr, /*contained=*/true))
        << html;
    auto plain = MakeElement("p");
    plain->SetInnerHtml(html);
    EXPECT_EQ(contained->InnerHtml(), plain->InnerHtml()) << html;
  }
}

TEST(InPlaceInnerHtmlTest, CorpusEditsEqualFreshParseAndKeepUntouchedNodes) {
  const std::vector<SiteSpec>& sites = Table1Sites();
  ASSERT_EQ(sites.size(), 20u);
  for (size_t site = 0; site < sites.size(); ++site) {
    SCOPED_TRACE(sites[site].name);
    std::unique_ptr<Document> live =
        ParseDocument(GenerateHomepage(sites[site]).html);
    std::string other_body =
        ParseDocument(GenerateHomepage(sites[(site + 1) % sites.size()]).html)
            ->body()
            ->InnerHtml();
    Element* body = live->body();
    ASSERT_NE(body, nullptr);
    // Settle the body on its own serialization first, so the live tree and
    // a fresh parse of `current` share child-index paths.
    std::string current = body->InnerHtml();
    body->SetInnerHtml(current);
    Rng rng(0x5EED + site);
    for (int round = 0; round < 2; ++round) {
      for (EditKind kind : kEditKinds) {
        SCOPED_TRACE(static_cast<int>(kind));
        auto model = MakeElement("body");
        model->SetInnerHtml(current);
        EditRegion region;
        std::string next =
            EditBody(kind, &rng, model.get(), current, other_body, &region);

        std::map<Path, Node*> before = NodesByPath(body);
        std::map<Path, uint64_t> before_revs;
        for (const auto& [path, node] : before) {
          before_revs[path] = node->rev();
        }
        uint64_t root_rev = live->document_element()->rev();
        uint64_t body_rev = body->rev();
        body->SetInnerHtml(next);

        auto fresh = MakeElement("body");
        fresh->SetInnerHtml(next);
        ASSERT_EQ(body->InnerHtml(), fresh->InnerHtml());

        std::map<Path, Node*> after = NodesByPath(body);
        size_t kept = 0;
        size_t lost = 0;
        for (const auto& [path, node] : before) {
          if (region.Covers(path)) {
            continue;
          }
          auto it = after.find(path);
          if (it != after.end() && it->second == node &&
              node->rev() == before_revs[path]) {
            ++kept;
          } else {
            ++lost;
          }
        }
        EXPECT_EQ(lost, 0u) << kept << " kept";
        bool changed = next != current;
        EXPECT_EQ(live->document_element()->rev() != root_rev, changed);
        EXPECT_EQ(body->rev() != body_rev, changed);
        current = next;
      }
    }
  }
}

}  // namespace
}  // namespace rcb
