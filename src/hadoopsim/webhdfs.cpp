#include "hadoopsim/webhdfs.h"

#include "common/strings.h"
#include "http/client.h"

namespace mrs {
namespace hadoopsim {

namespace {
/// Extract op=... from a query string.
std::string QueryOp(std::string_view query) {
  for (std::string_view kv : SplitChar(query, '&')) {
    auto parts = SplitCharLimit(kv, '=', 2);
    if (parts.size() == 2 && parts[0] == "op") {
      return ToUpperAscii(parts[1]);
    }
  }
  return "";
}
}  // namespace

Result<std::unique_ptr<WebHdfsServer>> WebHdfsServer::Start(
    const std::string& host, uint16_t port, int num_datanodes) {
  std::unique_ptr<WebHdfsServer> server(new WebHdfsServer(num_datanodes));
  WebHdfsServer* raw = server.get();
  MRS_ASSIGN_OR_RETURN(
      server->server_,
      HttpServer::Start(host, port,
                        [raw](const HttpRequest& req) {
                          return raw->Handle(req);
                        }));
  return server;
}

WebHdfsServer::~WebHdfsServer() {
  if (server_) server_->Shutdown();
}

Status WebHdfsServer::Create(const std::string& path, std::string content) {
  std::lock_guard<std::mutex> lock(mutex_);
  MRS_RETURN_IF_ERROR(
      hdfs_.CreateFile(path, static_cast<int64_t>(content.size())));
  contents_[path] = std::move(content);
  return Status::Ok();
}

Result<std::string> WebHdfsServer::Open(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  MRS_RETURN_IF_ERROR(hdfs_.Stat(path).status());
  auto it = contents_.find(path);
  if (it == contents_.end()) return NotFoundError("no content for " + path);
  if (!hdfs_.AllDataAvailable()) {
    // Over-strict but faithful to the failure mode the paper warns about:
    // if the private filesystem lost blocks, reads fail.
    for (const std::string& lost : hdfs_.LostFiles()) {
      if (lost == path) return DataLossError("blocks lost for " + path);
    }
  }
  return it->second;
}

Status WebHdfsServer::Delete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  MRS_RETURN_IF_ERROR(hdfs_.Delete(path));
  contents_.erase(path);
  return Status::Ok();
}

std::vector<std::string> WebHdfsServer::ListStatus(
    const std::string& dir) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hdfs_.ListDir(dir);
}

HttpResponse WebHdfsServer::Handle(const HttpRequest& req) {
  auto [target, query] = SplitTarget(req.target);
  constexpr std::string_view kPrefix = "/webhdfs/v1";
  if (!StartsWith(target, kPrefix)) {
    return HttpResponse::NotFound("expected /webhdfs/v1/<path>");
  }
  std::string path(target.substr(kPrefix.size()));
  if (path.empty()) path = "/";
  std::string op = QueryOp(query);

  if (req.method == "GET" && op == "OPEN") {
    Result<std::string> content = Open(path);
    if (!content.ok()) {
      return HttpResponse::NotFound(content.status().ToString());
    }
    return HttpResponse::Ok(std::move(content).value(),
                            "application/octet-stream");
  }
  if (req.method == "GET" && op == "LISTSTATUS") {
    std::string body;
    for (const std::string& p : ListStatus(path)) {
      body += p;
      body += '\n';
    }
    return HttpResponse::Ok(std::move(body));
  }
  if (req.method == "GET" && op == "GETFILESTATUS") {
    std::lock_guard<std::mutex> lock(mutex_);
    Result<const HdfsFile*> file = hdfs_.Stat(path);
    if (!file.ok()) return HttpResponse::NotFound(file.status().ToString());
    return HttpResponse::Ok(
        StrPrintf("path=%s length=%lld blocks=%zu\n", path.c_str(),
                  static_cast<long long>((*file)->size),
                  (*file)->blocks.size()));
  }
  if (req.method == "PUT" && op == "CREATE") {
    Status status = Create(path, req.body);
    if (!status.ok()) return HttpResponse::BadRequest(status.ToString());
    return HttpResponse::Make(201, "Created", "");
  }
  if (req.method == "DELETE" || (req.method == "PUT" && op == "DELETE")) {
    Status status = Delete(path);
    if (!status.ok()) return HttpResponse::NotFound(status.ToString());
    return HttpResponse::Ok("deleted");
  }
  return HttpResponse::BadRequest("unsupported op '" + op + "'");
}

Result<std::string> WebHdfsFetch(const std::string& url) {
  constexpr std::string_view kScheme = "webhdfs://";
  if (!StartsWith(url, kScheme)) {
    return InvalidArgumentError("not a webhdfs url: " + url);
  }
  std::string_view rest = std::string_view(url).substr(kScheme.size());
  size_t slash = rest.find('/');
  if (slash == std::string_view::npos) {
    return InvalidArgumentError("webhdfs url missing path: " + url);
  }
  std::string http_url = "http://" + std::string(rest.substr(0, slash)) +
                         "/webhdfs/v1" + std::string(rest.substr(slash)) +
                         "?op=OPEN";
  return HttpFetch(http_url);
}

}  // namespace hadoopsim
}  // namespace mrs
